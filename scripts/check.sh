#!/usr/bin/env bash
# Local parity with CI: configure + build + ctest exactly as the tier-1
# verify does.
#
# Usage: scripts/check.sh [--debug|--release] [--asan|--tsan] [--eval]
#                         [--bench-smoke] [--serve-smoke]
#                         [--label <ctest -L arg>]
#
# --eval runs only the `eval` label: the reduced scenario-matrix smoke run
# (example_hfq_eval --reduced), writing BENCH_eval_smoke.json in the build
# directory, plus the large-join band smoke (chain-16 cell scored against
# GEQO, BENCH_eval_band_smoke.json) — the same jobs CI's eval-smoke runs
# and archives — and then
# diffs the fresh report's aggregate cost regret against the committed
# BENCH_eval_smoke.json reference (scripts/diff_eval_regret.py), failing
# on mean/p95 increases beyond a small tolerance, not just the golden
# ceilings in eval_test. It finishes with a --measured-exec smoke run
# (every learned and baseline plan of the reduced matrix actually executes
# through the vectorized engine; measured-latency regret lands next to the
# simulated one in BENCH_eval_measured_smoke.json — numbers are
# machine-dependent and not gated). The eval build uses portable codegen
# (HFQ_NATIVE_ARCH=OFF, own build dir) so the regret numbers are
# comparable across machines; like CI's eval-smoke job it also runs
# nn_test there, the network kernels' narrow (SSE2) tiles against their
# scalar references.
#
# --bench-smoke additionally executes the batched-search-core benchmarks
# (BM_PlanSearch + BM_FrontierForward), the network benchmarks at the
# benchmark driver's predictor shape (BM_PredictorForward at 1, 4 and 64
# rows, BM_RewardPredictorTrainSteps: one 64-example training step), the
# DP plan-generator scaling
# sweep (BM_DpEnumerate: chain/star/clique x 8/12/16/20 relations; the
# n=12 cells walk the full historic subset space, up to a few hundred ms
# each), the expert optimizer end to end (BM_ExpertOptimizeDp: DP plus its
# one tree build; BM_ExpertOptimizeGeqo: GEQO's plan decoder), and the
# executor benches (BM_Execute*: per-operator
# vectorized-vs-tuple-at-a-time A/B plus the hash-join and group-by
# acceptance benches), mirroring CI's bench-smoke step: it proves the
# bench targets still run, not just compile. Numbers are printed, not
# gated. It then runs the benchmark driver's self-test on all three
# workloads (perfbench/test_digest.py adhoc eval serve: builds the driver
# into .bench_build/, runs each workload briefly, gates correct answers and
# seed-determined work digests), mirroring CI's benchmark-driver step.
#
# --serve-smoke additionally runs the BM_PlanServer serving benchmark
# briefly (plans/sec + p50/p99 service latency, cold and warm-cache, 1
# and 4 threads) and the example_hfq_eval --serve-stress harness
# (concurrent Plan() under background policy swaps), mirroring CI's
# serve-stress smoke step. Exit status gates correctness; numbers are
# printed, not gated.
set -euo pipefail

cd "$(dirname "$0")/.."

build_type=""
sanitize=OFF
tsan=OFF
eval_gate=OFF
bench_smoke=OFF
serve_smoke=OFF
build_dir=build
label=""

while [[ $# -gt 0 ]]; do
  case "$1" in
    --debug)   build_type=Debug ;;
    --release) build_type=Release ;;
    --asan)    sanitize=ON; build_dir=build-asan ;;
    --tsan)    tsan=ON; build_dir=build-tsan ;;
    --label)   shift; label="${1:?--label requires an argument}" ;;
    --eval)    label=eval; eval_gate=ON; build_dir=build-eval ;;
    --bench-smoke) bench_smoke=ON ;;
    --serve-smoke) serve_smoke=ON ;;
    *) echo "unknown option: $1" >&2; exit 2 ;;
  esac
  shift
done

# Default matches CI: sanitizer runs build Debug, plain runs RelWithDebInfo,
# the eval gate runs Release (like the eval-smoke job).
if [[ -z "$build_type" ]]; then
  if [[ "$sanitize" == ON ]]; then build_type=Debug;
  elif [[ "$eval_gate" == ON ]]; then build_type=Release;
  else build_type=RelWithDebInfo; fi
fi

# TSan matches the CI tsan job: portable codegen, no ASan. The eval gate
# is also portable so its regret trajectory diffs cleanly against the
# committed cross-machine reference.
extra_flags=()
if [[ "$tsan" == ON ]]; then
  extra_flags+=(-DHFQ_SANITIZE_THREAD=ON -DHFQ_NATIVE_ARCH=OFF)
fi
if [[ "$eval_gate" == ON ]]; then
  extra_flags+=(-DHFQ_NATIVE_ARCH=OFF)
fi

cmake -B "$build_dir" -S . \
  -DCMAKE_BUILD_TYPE="$build_type" \
  -DHFQ_SANITIZE="$sanitize" "${extra_flags[@]}"
cmake --build "$build_dir" -j
cd "$build_dir"
# Explicit job count: ctest's value-less `-j` only exists since CMake 3.29
# (older versions silently drop it and run serially).
if [[ -n "$label" ]]; then
  ctest --output-on-failure -L "$label" -j "$(nproc)"
else
  ctest --output-on-failure -j "$(nproc)"
fi

if [[ "$eval_gate" == ON ]]; then
  ./tests/nn_test
  # --ceiling pins the search-as-teacher greedy-regret win absolutely,
  # independent of the committed reference (mirrors CI's eval-smoke job).
  python3 ../scripts/diff_eval_regret.py ../BENCH_eval_smoke.json \
    BENCH_eval_smoke.json --ceiling learned=3.4
  # Measured-execution smoke (mirrors CI's eval-smoke job): plans really
  # run through the vectorized executor; success is gated, numbers not.
  ./examples/example_hfq_eval --reduced --no-timings --measured-exec \
    --out=BENCH_eval_measured_smoke.json
fi

if [[ "$bench_smoke" == ON ]]; then
  # Mirrors CI's bench-smoke step (local builds keep HFQ_BUILD_BENCH on
  # in every configuration, so the binary is always here).
  ./bench/bench_micro_benchmarks \
    --benchmark_filter='BM_PlanSearch|BM_FrontierForward|BM_PredictorForward|BM_RewardPredictorTrainSteps|BM_DpEnumerate|BM_ExpertOptimize|BM_PlanServer|BM_Execute|BM_RejoinRolloutCollection' \
    --benchmark_min_time=0.01
  python3 ../perfbench/test_digest.py adhoc eval serve
fi

if [[ "$serve_smoke" == ON ]]; then
  # Mirrors CI's serve-stress smoke step: the PlanServer benchmark run
  # briefly, then the concurrent serving harness with background policy
  # swaps.
  ./bench/bench_micro_benchmarks \
    --benchmark_filter='BM_PlanServer' --benchmark_min_time=0.01
  ./examples/example_hfq_eval --serve-stress \
    --serve-threads=4 --serve-seconds=2
fi
