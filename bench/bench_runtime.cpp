// Concurrent streaming runtime benchmark (google-benchmark): sequential
// core::OnlineDetector vs runtime::ShardedOnlineEngine on one large
// interleaved trace (default ≥ 50k transactions, DM_BENCH_TXNS to resize).
//
// Before any timing, main() verifies the runtime's correctness invariant on
// the benchmark trace itself: the 8-shard alert set must be IDENTICAL to
// the 1-shard and sequential alert sets.  A throughput number for a wrong
// answer is worthless, so the process aborts on divergence.  The gate checks
// itself first: the sequential set must be non-empty, and the same set with
// one alert dropped must compare unequal.
//
// Each engine is timed over 5 repetitions of one full pass, and the median
// is the row to read: single passes of one build swing by more than the
// sharding gain.
//
// Where the speedup comes from: each shard scores its clients' sessions on
// its own worker, so the WCG fold, feature extraction and the ERF spread
// over K workers, and the gain is bounded by the hardware threads there
// are.  Session lookup (O(log n + the client's own sessions)) and idle
// expiry (one LRU-head test when nothing is due) cost about the same in
// either engine, so one shard, which adds the dispatch and queue hop and no
// parallelism, is no faster than the sequential engine.
// `--metrics` additionally measures the instrumentation tax (same trace,
// obs idle vs active — the acceptance budget is < 3%) and prints the full
// per-stage latency panel including clue-to-verdict p50/p95/p99.
// `--json <path>` appends the result record as one JSON line.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <tuple>
#include <vector>

#include "bench_common.h"
#include "core/online.h"
#include "core/trainer.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "runtime/sharded_online.h"
#include "runtime/stats.h"
#include "synth/dataset.h"

namespace {

using dm::core::Alert;
using dm::core::OnlineOptions;
using dm::http::HttpTransaction;

std::size_t target_transactions() {
  if (const char* s = std::getenv("DM_BENCH_TXNS")) {
    const long long v = std::atoll(s);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return 50'000;
}

std::shared_ptr<const dm::core::Detector> trained_detector() {
  static const auto detector = [] {
    const auto gt = dm::synth::generate_ground_truth(42, 0.05);
    std::vector<dm::core::Wcg> infections;
    std::vector<dm::core::Wcg> benign;
    for (const auto& e : gt.infections) {
      infections.push_back(dm::core::build_wcg(e.transactions));
    }
    for (const auto& e : gt.benign) {
      benign.push_back(dm::core::build_wcg(e.transactions));
    }
    return std::make_shared<const dm::core::Detector>(dm::core::train_dynaminer(
        dm::core::dataset_from_wcgs(infections, benign), 42));
  }();
  return detector;
}

OnlineOptions online_options() {
  OnlineOptions options;
  options.redirect_chain_threshold = 2;
  return options;
}

/// Edge-of-network workload: thousands of clients with staggered, heavily
/// overlapping browsing sessions and a ~1.5% infection rate.  Episodes are
/// rebased onto a common clock so hundreds of sessions are live at once —
/// the regime where per-transaction session scans dominate.
const std::vector<HttpTransaction>& benchmark_trace() {
  static const std::vector<HttpTransaction> trace = [] {
    const std::size_t target = target_transactions();
    dm::synth::TraceGenerator gen(4242);
    const auto& families = dm::synth::exploit_kit_families();
    std::vector<dm::synth::Episode> episodes;
    std::size_t total = 0;
    while (total < target) {
      for (int b = 0; b < 64 && total < target; ++b) {
        episodes.push_back(gen.benign());
        total += episodes.back().transactions.size();
      }
      episodes.push_back(
          gen.infection(families[episodes.size() % families.size()]));
      total += episodes.back().transactions.size();
    }

    std::vector<HttpTransaction> stream;
    stream.reserve(total);
    constexpr std::uint64_t kStaggerMicros = 50'000;  // 50 ms between session starts
    std::uint64_t start = 1'500'000'000ULL * 1'000'000;
    for (auto& episode : episodes) {
      if (episode.transactions.empty()) continue;
      const std::uint64_t base = episode.transactions.front().request.ts_micros;
      for (auto& txn : episode.transactions) {
        txn.request.ts_micros = txn.request.ts_micros - base + start;
        if (txn.response) {
          txn.response->ts_micros = txn.response->ts_micros - base + start;
        }
        stream.push_back(std::move(txn));
      }
      start += kStaggerMicros;
    }
    std::stable_sort(stream.begin(), stream.end(),
                     [](const HttpTransaction& a, const HttpTransaction& b) {
                       return a.request.ts_micros < b.request.ts_micros;
                     });
    return stream;
  }();
  return trace;
}

std::vector<Alert> run_sharded(std::size_t shards) {
  dm::runtime::ShardedOptions options;
  options.num_shards = shards;
  options.batch_size = 64;
  options.online = online_options();
  dm::runtime::ShardedOnlineEngine engine(trained_detector(), options);
  for (const auto& txn : benchmark_trace()) engine.observe(txn);
  engine.finish();
  return engine.merged_alerts();
}

std::vector<Alert> run_sequential() {
  dm::core::OnlineDetector detector(trained_detector(), online_options());
  for (const auto& txn : benchmark_trace()) detector.observe(txn);
  return detector.alerts();
}

using AlertKey = std::tuple<std::uint64_t, std::string, double, std::string>;

std::vector<AlertKey> sorted_keys(const std::vector<Alert>& alerts) {
  std::vector<AlertKey> keys;
  keys.reserve(alerts.size());
  for (const auto& a : alerts) {
    keys.emplace_back(a.ts_micros, a.session_key, a.score, a.trigger_host);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

void BM_SequentialOnline(benchmark::State& state) {
  std::size_t alerts = 0;
  for (auto _ : state) {
    alerts = run_sequential().size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() *
                                                    benchmark_trace().size()));
  state.counters["alerts"] = static_cast<double>(alerts);
}
BENCHMARK(BM_SequentialOnline)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Iterations(1)
    ->Repetitions(5)
    ->ReportAggregatesOnly(true);

void BM_ShardedOnline(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  std::size_t alerts = 0;
  for (auto _ : state) {
    alerts = run_sharded(shards).size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() *
                                                    benchmark_trace().size()));
  state.counters["alerts"] = static_cast<double>(alerts);
  state.counters["shards"] = static_cast<double>(shards);
}
BENCHMARK(BM_ShardedOnline)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Iterations(1)
    ->Repetitions(5)
    ->ReportAggregatesOnly(true);

// --- runtime::Stats false-sharing A/B --------------------------------------
// The pre-padding layout: hot counters packed shoulder to shoulder, so the
// dispatcher's transactions_in and the workers' transactions_out /
// detector_failures share one cache line.  Kept here (not in src/) purely
// as the "before" row of the padding delta.
struct PackedStats {
  std::atomic<std::uint64_t> transactions_in{0};
  std::atomic<std::uint64_t> transactions_out{0};
  std::atomic<std::uint64_t> batches_dispatched{0};
  std::atomic<std::uint64_t> detector_failures{0};
};

void BM_StatsCountersPacked(benchmark::State& state) {
  static PackedStats stats;
  std::atomic<std::uint64_t>* slots[4] = {
      &stats.transactions_in, &stats.transactions_out,
      &stats.batches_dispatched, &stats.detector_failures};
  auto* counter = slots[state.thread_index() % 4];
  for (auto _ : state) {
    counter->fetch_add(1, std::memory_order_relaxed);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StatsCountersPacked)->Threads(4)->UseRealTime();

void BM_StatsCountersPadded(benchmark::State& state) {
  static dm::runtime::Stats stats;  // each counter on its own line
  dm::runtime::PaddedStatCounter* slots[4] = {
      &stats.transactions_in, &stats.transactions_out,
      &stats.batches_dispatched, &stats.detector_failures};
  auto* counter = slots[state.thread_index() % 4];
  for (auto _ : state) {
    counter->fetch_add(1, std::memory_order_relaxed);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StatsCountersPadded)->Threads(4)->UseRealTime();

// --- --metrics: instrumentation tax + latency panel ------------------------

double timed_sharded_run_ms(std::size_t shards) {
  const auto t0 = std::chrono::steady_clock::now();
  run_sharded(shards);
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

void run_metrics_report(const std::optional<std::string>& json_path) {
  const std::size_t txns = benchmark_trace().size();
  constexpr std::size_t kShards = 8;

  // Warm-up pass so no timed run pays first-touch/cold-cache costs —
  // otherwise whichever mode runs first looks slower than it is.
  dm::obs::set_enabled(false);
  timed_sharded_run_ms(kShards);

  // Oversubscribed shard workers make any single run noisy, so alternate
  // idle/active runs and keep the minimum of each — the least-perturbed
  // sample is the honest estimate of each mode's cost.
  constexpr int kRounds = 3;
  double idle_ms = std::numeric_limits<double>::infinity();
  double active_ms = std::numeric_limits<double>::infinity();
  for (int round = 0; round < kRounds; ++round) {
    // Before: metrics compiled in but idle (spans skip their clock reads).
    dm::obs::set_enabled(false);
    dm::obs::registry().reset();
    idle_ms = std::min(idle_ms, timed_sharded_run_ms(kShards));
    // After: instrumentation live; the last run also fills the latency panel.
    dm::obs::set_enabled(true);
    dm::obs::registry().reset();
    active_ms = std::min(active_ms, timed_sharded_run_ms(kShards));
  }
  const double overhead_pct = (active_ms - idle_ms) / idle_ms * 100.0;

  std::printf("\n--- instrumentation overhead (%zu shards, %zu txns) ---\n",
              kShards, txns);
  std::printf("metrics idle:    %8.1f ms  (%.0f txn/s)\n", idle_ms,
              static_cast<double>(txns) / (idle_ms / 1e3));
  std::printf("metrics active:  %8.1f ms  (%.0f txn/s)\n", active_ms,
              static_cast<double>(txns) / (active_ms / 1e3));
  std::printf("overhead:        %+7.2f %%  (budget: < 3%%)\n", overhead_pct);

  const auto snap = dm::obs::snapshot();
  std::printf("\n%s", dm::obs::to_table(snap).c_str());
  if (const auto* h = snap.histogram("dm.detect.clue_to_verdict_ns")) {
    std::printf(
        "\nclue-to-verdict latency: n=%llu p50=%.1fus p95=%.1fus p99=%.1fus\n",
        static_cast<unsigned long long>(h->count), h->p50() / 1e3,
        h->p95() / 1e3, h->p99() / 1e3);
  }

  if (json_path) {
    dm::bench::JsonRecord record;
    record.set("bench", "bench_runtime");
    record.set("transactions", static_cast<std::uint64_t>(txns));
    record.set("shards", static_cast<std::uint64_t>(kShards));
    record.set("metrics_idle_ms", idle_ms);
    record.set("metrics_active_ms", active_ms);
    record.set("metrics_overhead_pct", overhead_pct);
    record.set_raw("obs", dm::obs::to_json(snap));
    if (record.append_to(*json_path)) {
      std::printf("result record appended to %s\n", json_path->c_str());
    } else {
      std::fprintf(stderr, "WARNING: could not write %s\n", json_path->c_str());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool metrics_mode = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics") == 0) {
      metrics_mode = true;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      break;
    }
  }
  const auto json_path = dm::bench::extract_json_path(argc, argv);

  std::printf("building benchmark trace (%zu-transaction target)...\n",
              target_transactions());
  const auto& trace = benchmark_trace();
  std::printf("trace ready: %zu transactions\n", trace.size());

  std::printf("verifying alert-set equality (sequential vs 1 vs 8 shards)...\n");
  const auto alerts = run_sequential();
  const auto sequential = sorted_keys(alerts);
  if (sequential.empty()) {
    std::fprintf(stderr, "FATAL: the trace produced no alerts — the identity "
                         "gate would be vacuous\n");
    return 1;
  }
  auto dropped = alerts;
  dropped.pop_back();
  if (sorted_keys(dropped) == sequential) {
    std::fprintf(stderr, "FATAL: the alert-identity comparison accepted a run "
                         "with one alert dropped\n");
    return 1;
  }
  const auto one = sorted_keys(run_sharded(1));
  const auto eight = sorted_keys(run_sharded(8));
  if (sequential != one || one != eight) {
    std::fprintf(stderr,
                 "FATAL: alert sets diverged (sequential=%zu, 1-shard=%zu, "
                 "8-shard=%zu) — refusing to benchmark a wrong answer\n",
                 sequential.size(), one.size(), eight.size());
    return 1;
  }
  std::printf("alert sets identical (%zu alerts); benchmarking...\n\n",
              sequential.size());

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  if (metrics_mode) run_metrics_report(json_path);
  return 0;
}
