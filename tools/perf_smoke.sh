#!/usr/bin/env bash
# Run the small-mesh bench subset behind the CI perf-smoke gate and collect
# one BENCH_<suite>.json per binary in <out_dir>. The subset is mostly
# modeled (deterministic, compared tightly across machines with the same
# compiler); the four measured suites (telemetry hook costs, profiler hook
# costs, lock-order checking costs and durable checkpoint costs) are
# compared under bench_compare's wide measured band.
#
# Usage: tools/perf_smoke.sh <build_dir> <out_dir>
#
# Refresh the committed baselines after an intentional model change with:
#   tools/perf_smoke.sh build bench/baselines
#   rm bench/baselines/*.csv
set -euo pipefail

BUILD=${1:?usage: perf_smoke.sh <build_dir> <out_dir>}
OUT=${2:?usage: perf_smoke.sh <build_dir> <out_dir>}
export MPAS_BENCH_OUT="$OUT"

"$BUILD/bench/table1_patterns" > /dev/null
"$BUILD/bench/table2_platform" > /dev/null
"$BUILD/bench/fig6_optimization_ladder" cells=2562 > /dev/null
"$BUILD/bench/fig7_hybrid_comparison" > /dev/null
"$BUILD/bench/ablation_parallel_regions" > /dev/null
"$BUILD/bench/ablation_split_sweep" cells=2562 > /dev/null
"$BUILD/bench/ablation_transfer_policy" steps=10 > /dev/null
"$BUILD/bench/pattern_costs" cells=2562 > /dev/null
"$BUILD/bench/telemetry_overhead" > /dev/null
"$BUILD/bench/profiler_overhead" > /dev/null
"$BUILD/bench/lock_contention" > /dev/null
"$BUILD/bench/durable_overhead" > /dev/null

ls "$OUT"/BENCH_*.json
