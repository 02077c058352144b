#!/usr/bin/env bash
# CI entry point: the tier-1 verify line from a clean checkout, once
# with default flags, once with -DVP_SANITIZE=ON, and once
# instrumented with -DVP_COVERAGE=ON followed by the per-directory
# line-coverage summary. Any failure fails the script.
#
# Every registered test carries exactly one ctest label (unit |
# golden | smoke); set VP_CTEST_LABEL to restrict each ctest run to
# one label so CI can shard the suite across parallel jobs, e.g.
#   VP_CTEST_LABEL=unit ./scripts/ci.sh
# The smoke label covers smoke_test plus the sharded vpexp registry
# invocations (bench_smoke.vpexp_*), which exercise every registered
# experiment under --dry-run including the CSV/JSON writers.
set -euo pipefail

cd "$(dirname "$0")/.."
jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 2)"

ctest_args=()
if [[ -n "${VP_CTEST_LABEL:-}" ]]; then
    ctest_args+=(-L "$VP_CTEST_LABEL")
fi

run_config() {
    local dir="$1"; shift
    rm -rf "$dir"
    cmake -B "$dir" -S . "$@"
    cmake --build "$dir" -j "$jobs"
    (cd "$dir" && ctest --output-on-failure -j "$jobs" \
                        ${ctest_args[@]+"${ctest_args[@]}"})
}

# Static analysis first: vplint needs no build and fails fast on
# invariant violations (hot-path allocation, undocumented counters,
# naked mutexes); the clang-tidy half runs when the toolchain is
# present (see scripts/lint.sh and the dedicated CI job).
echo "==> lint (vplint + clang-tidy when available)"
./scripts/lint.sh build

echo "==> default configuration"
run_config build

# Perf smoke: the batched-vs-scalar replay pairs, machine-readable.
# Runs on the unsharded invocation (or an explicit perf shard) against
# the Release build just produced; build/BENCH_hotpath.json is the
# artifact CI uploads. The hard regression gate is the ctest-side
# hotpath_guard_test; this step records the actual ratios.
if [[ -z "${VP_CTEST_LABEL:-}" || "${VP_CTEST_LABEL}" == "perf" ]]; then
    echo "==> perf smoke (batched hot path)"
    if [[ -x build/bench/perf_predictors ]]; then
        ./build/bench/perf_predictors --json \
            --benchmark_filter=BM_Replay \
            --benchmark_min_time=0.05 \
            > build/BENCH_hotpath.json
        echo "    wrote build/BENCH_hotpath.json"
    else
        echo "    perf_predictors not built (no google-benchmark); skipped"
    fi
    # vpd server loadgen: the seven workload traces replayed as
    # concurrent loopback clients through both connection engines,
    # with the per-tenant byte-identity check against serial replay
    # built in (the binary exits nonzero on any divergence).
    echo "==> perf smoke (vpd server loadgen)"
    ./build/bench/vpd_loadgen --scale 5 --clients 1,4 \
        --out build/BENCH_vpd.json
    echo "    wrote build/BENCH_vpd.json"

    # Observability smoke: one suite campaign with per-cell counters,
    # windowed telemetry, and a Chrome trace-event timeline. The
    # resulting BENCH_results.json (counters + windows for all seven
    # workloads) and BENCH_trace.json are the artifacts CI uploads.
    echo "==> observability smoke (counters + trace timeline)"
    ./build/bench/vpexp figure5 --dry-run --window 8192 \
        --trace-json build/BENCH_trace.json \
        --out build/obs-smoke --format json > /dev/null
    cp build/obs-smoke/BENCH_results.json build/BENCH_results.json
    echo "    wrote build/BENCH_results.json and build/BENCH_trace.json"
fi

echo "==> sanitized configuration (ASan + UBSan)"
run_config build-asan -DVP_SANITIZE=ON

# ThreadSanitizer over the concurrent subsystems: the sharded bank
# map, both vpd server engines, the frame decoder under concurrent
# connections, and the obs registry shards. TSan and ASan cannot
# share a process, so this is its own configuration; benches and
# examples are skipped for build speed and the run is restricted to
# the multithreaded test binaries.
echo "==> thread-sanitized configuration (TSan)"
rm -rf build-tsan
cmake -B build-tsan -S . -DVP_TSAN=ON \
      -DVP_BUILD_BENCH=OFF -DVP_BUILD_EXAMPLES=OFF
cmake --build build-tsan -j "$jobs" \
      --target sharded_bank_test vpd_server_test net_protocol_test obs_test
(cd build-tsan && ctest --output-on-failure -j "$jobs" \
      -R "ShardedBank|VpdServer|NetProtocol|Registry|Snapshot|Histogram|Instrumentation|TraceLog")

echo "==> coverage configuration (gcov instrumentation)"
run_config build-cov -DVP_COVERAGE=ON -DCMAKE_BUILD_TYPE=Debug
./scripts/coverage_summary.sh build-cov

echo "==> CI passed"
