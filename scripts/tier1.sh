#!/usr/bin/env bash
# Tier-1 verification: full build + test suite, then a ThreadSanitizer pass
# over the threading-sensitive test binaries (test_util, test_obs,
# test_features, test_net, test_tcp, test_faults, test_load, test_index)
# plus the MapStore ingest-while-serving soak from test_core, the
# pool-parallel differential-evolution suite from test_geometry, the
# shard-residency fault/evict churn soak from test_residency, and the
# pool-helped chunked zlib and pooled-blur filter suites from test_imaging.
#
# Usage: scripts/tier1.sh [build-dir] [tsan-build-dir]
# The regular build (tests, benches, examples) fails on any compiler
# warning.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
tsan_dir="${2:-$repo_root/build-tsan}"

echo "== tier-1: regular build + full test suite =="
cmake -B "$build_dir" -S "$repo_root" -DVP_WARNINGS_AS_ERRORS=ON
cmake --build "$build_dir" -j
ctest --test-dir "$build_dir" --output-on-failure -j"$(nproc)"

echo "== tier-1: ThreadSanitizer pass (threaded + network suites) =="
# Benchmarks/examples are irrelevant to the TSan pass; skip them for speed.
tsan_targets=(test_util test_obs test_features test_net test_tcp test_faults
              test_load test_index test_core test_geometry test_residency
              test_imaging)
cmake -B "$tsan_dir" -S "$repo_root" \
  -DVP_SANITIZE=thread \
  -DVP_BUILD_BENCHMARKS=OFF \
  -DVP_BUILD_EXAMPLES=OFF
cmake --build "$tsan_dir" -j --target "${tsan_targets[@]}"
for t in "${tsan_targets[@]}"; do
  if [ "$t" = test_core ]; then
    # Only the MapStore suites (snapshot-swap store, concurrent
    # ingest-while-serving soak); the rest of test_core is single-threaded
    # solver work that is slow under TSan and races nothing.
    "$tsan_dir/tests/$t" --gtest_filter='MapStore*'
  elif [ "$t" = test_geometry ]; then
    # Only the DE suite: its pool-size bit-identity test runs the chunked
    # objective evaluation across 1/4/16 workers.
    "$tsan_dir/tests/$t" --gtest_filter='DifferentialEvolution*'
  elif [ "$t" = test_residency ]; then
    # The threaded residency suites: single-flight cold faults and the
    # fault/evict churn soak (queries racing eviction + unmap). The format
    # fuzz tests are single-threaded and slow under TSan.
    "$tsan_dir/tests/$t" \
      --gtest_filter='Residency.SingleFlight*:Residency.Concurrent*:Residency.QueryRacing*'
  elif [ "$t" = test_imaging ]; then
    # The chunked zlib suite (its chunks run on pool helpers beside the
    # caller, including helpers that start after the call returned) and the
    # filter suite (the pooled blur splits row bands across workers).
    "$tsan_dir/tests/$t" --gtest_filter='Zlib*:Filters*'
  else
    "$tsan_dir/tests/$t"
  fi
done

echo "tier-1: all checks passed"
