#!/usr/bin/env bash
# Full verification sweep: the tier-1 suite on a plain build, one-second
# pipebench runs for their end-to-end checks and pipebench's own tests,
# then the labelled
# concurrency/fault/training/serving suites re-run under ThreadSanitizer and
# AddressSanitizer instrumented builds.
#
# Usage: scripts/verify.sh [jobs]
#   jobs  parallel build jobs (default: nproc)
#
# Build trees: build/ (tier-1), .bench_build/ (pipebench, Release),
# build-tsan/, build-asan/ — all cached across runs.  Set
# DM_VERIFY_SKIP_SANITIZERS=1 to stop after tier-1 and pipebench (e.g. on a
# toolchain without sanitizer runtimes).
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

run() {
  echo
  echo "=== $* ==="
  "$@"
}

# --- tier 1: full suite, plain build ---------------------------------------
run cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
run cmake --build build -j "$JOBS"
run ctest --test-dir build --output-on-failure

# --- pipebench checks: every workload's shortest run, then its own tests ---
# Exits non-zero unless the decoded stream matches the generated one, the
# layered whole-capture pass equals http::transactions_from_pcap, the 3-shard
# alerts equal the 1-thread alerts bit for bit, and some alert is raised.
run python3 pipebench/run.py --workload archive --seconds 1 --trace 0
# The same checks on the edge workload: ~2.5k resident sessions, whose
# session logs hold the facts observe() keeps.
run python3 pipebench/run.py --workload edge --seconds 1 --trace 0
# And on catalog, the one workload with both interleaved flows and all 18
# trace families: the checks compare every reconstructed header and the
# order of request-time ties.
run python3 pipebench/run.py --workload catalog --seconds 1 --trace 0
# pipebench_test (the clean-heap peak-RSS child the peak metrics rest on,
# percentile selection, span self time), built in the tree run.py
# configured.
BENCH_TREE="${CARGO_TARGET_DIR:-.bench_build}/pipebench"
run cmake --build "$BENCH_TREE" --target pipebench_test -j "$JOBS"
run ctest --test-dir "$BENCH_TREE" --output-on-failure

if [[ "${DM_VERIFY_SKIP_SANITIZERS:-0}" == "1" ]]; then
  echo
  echo "verify: tier-1 + pipebench green (sanitizer suites skipped on request)"
  exit 0
fi

# --- instrumented sweeps: the labelled suites ------------------------------
# tsan watches the concurrent runtime, hot-swap, and parallel training;
# asan watches the fuzz fences, fault injection, and the store's recovery
# path; perf adds the budgeted session-lifecycle fences (idle expiry, LRU
# eviction, sharded determinism); synth adds the trace-family determinism,
# adversarial detection-path and 18-family shard-identity fences; tsan adds
# the tests that carry only that label (the MPMC queue, the worker pool, the
# sharded engine, the logger, the detector, bench_runtime's alert-identity
# gate).
# Both sanitizers run the same label union so nothing labelled escapes
# either.
LABELS="obs|fault|train|serve|perf|synth|tsan"

run cmake -B build-tsan -S . -DDM_SANITIZE=thread
run cmake --build build-tsan -j "$JOBS"
run ctest --test-dir build-tsan -L "$LABELS" --output-on-failure

run cmake -B build-asan -S . -DDM_SANITIZE=address
run cmake --build build-asan -j "$JOBS"
run ctest --test-dir build-asan -L "$LABELS" --output-on-failure

echo
echo "verify: tier-1 + pipebench + tsan/asan labelled suites all green"
