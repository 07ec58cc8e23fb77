// Serving-layer A/B: model hot-swap latency and throughput during a live
// background retrain, plus the no-op fences the continual-learning loop
// rests on.
//
// Six measurements:
//   1. No-op retrain byte-identity: two retrain_now() calls on a frozen
//      reservoir must produce byte-identical serialized forests — training
//      is a pure function of (snapshot, options).  FATAL on divergence.
//   2. No-op swap alert-identity: a mid-stream publish of a structurally
//      identical detector must leave the alert set bit-identical to a run
//      with no swap at all.  FATAL on divergence.
//   3. Swap latency: publish() under a live reader pin, p50/p95 over many
//      swaps — the "atomic and non-blocking" claim, in numbers.
//   4. Throughput A/B: the sharded engine over one trace, steady state
//      (serve wired, no triggers) vs with background retrains + shadow
//      scoring live.  Acceptance (ISSUE 6): < 10% degradation — judged on a
//      box with >= 8 hardware threads, where training actually overlaps
//      scoring instead of time-slicing with it.
//   5. Persist/recover latency: the model store's full durable commit
//      (write-temp → fsync → rename, artifact + manifest) p50/p95 over N
//      promotions, then one cold recover() over the surviving history.
//      FATAL if recovery does not land on the last committed version.
//   6. Tracing overhead: the same sharded serving pass with the causal
//      tracing layer (ISSUE 8) off / default-sampled (1/16 sessions) /
//      always-on.  Acceptance: <= 3% degradation with default sampling.
//
// `--json <path>` appends the result record; knobs: DM_SCALE (default 0.5),
// DM_SEED, DM_BENCH_SHARDS (default 2).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "bench_common.h"
#include "core/online.h"
#include "core/trainer.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "runtime/sharded_online.h"
#include "serve/model_store.h"
#include "serve/retrain.h"
#include "synth/generator.h"

namespace {

using dm::core::Alert;
using dm::core::OnlineOptions;
using dm::http::HttpTransaction;

std::size_t env_size(const char* name, std::size_t fallback) {
  if (const char* s = std::getenv(name)) {
    const long long v = std::atoll(s);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return fallback;
}

std::shared_ptr<const dm::core::Detector> trained_detector() {
  static const auto detector = [] {
    const auto corpus = dm::bench::build_corpus(42, 0.05);
    return std::make_shared<const dm::core::Detector>(
        dm::core::train_dynaminer(dm::bench::corpus_dataset(corpus), 42));
  }();
  return detector;
}

HttpTransaction make_txn(const std::string& client, const std::string& cookie,
                         const std::string& server, const std::string& uri,
                         std::uint64_t ts_micros,
                         const std::string& referrer = {}) {
  HttpTransaction txn;
  txn.client_host = client;
  txn.server_host = server;
  txn.server_ip = "93.184.216.34";
  txn.request.method = "GET";
  txn.request.uri = uri;
  txn.request.ts_micros = ts_micros;
  txn.request.headers.add("User-Agent", "Mozilla/5.0 (Windows NT 10.0)");
  txn.request.headers.add("Cookie", "PHPSESSID=" + cookie);
  if (!referrer.empty()) txn.request.headers.add("Referer", referrer);
  dm::http::HttpResponse res;
  res.status_code = 200;
  res.ts_micros = ts_micros + 15'000;
  res.headers.add("Content-Type", "text/html");
  res.body.assign(96, 'x');
  txn.response = res;
  return txn;
}

HttpTransaction make_redirect(const std::string& client,
                              const std::string& cookie,
                              const std::string& from, const std::string& to,
                              std::uint64_t ts_micros) {
  auto txn = make_txn(client, cookie, from, "/r", ts_micros);
  txn.response->status_code = 302;
  txn.response->headers = {};
  txn.response->headers.add("Location", "http://" + to + "/r");
  txn.response->body.clear();
  return txn;
}

/// Re-times an episode to start at `start_micros`.
void retime(dm::synth::Episode& episode, std::uint64_t start_micros) {
  if (episode.transactions.empty()) return;
  const std::uint64_t base = episode.transactions.front().request.ts_micros;
  for (auto& txn : episode.transactions) {
    txn.request.ts_micros = txn.request.ts_micros - base + start_micros;
    if (txn.response) {
      txn.response->ts_micros = txn.response->ts_micros - base + start_micros;
    }
  }
}

/// Clue-bearing long sessions (same shape as bench_online_hotpath, smaller)
/// interleaved with synth infection episodes: the long sessions produce a
/// steady run of benign verdicts (sub-threshold scores), the infection
/// episodes alert — so both reservoir classes fill and a retrained
/// candidate sees a two-class corpus.
std::vector<HttpTransaction> build_trace(std::size_t clients,
                                         std::size_t post_clue,
                                         std::uint64_t seed) {
  std::vector<HttpTransaction> stream;
  std::uint64_t start = 1'700'000'000ULL * 1'000'000;
  for (std::size_t c = 0; c < clients; ++c) {
    const std::string client = "10.8." + std::to_string(c % 250) + ".9";
    const std::string cookie = "srv" + std::to_string(c);
    const std::string tag = std::to_string(c);
    std::uint64_t ts = start;
    auto step = [&ts]() {
      const std::uint64_t now = ts;
      ts += 200'000;
      return now;
    };
    const std::string portal = "portal-" + tag + ".example";
    for (std::size_t i = 0; i < 24; ++i) {
      stream.push_back(make_txn(client, cookie,
                                "cdn" + std::to_string(i % 5) + "-" + tag +
                                    ".example",
                                "/p/" + std::to_string(i), step(),
                                "http://" + portal + "/"));
    }
    const std::string landing = "landing-" + tag + ".example";
    const std::string hop = "hop-" + tag + ".example";
    const std::string drop = "drop-" + tag + ".example";
    stream.push_back(make_redirect(client, cookie, landing, hop, step()));
    stream.push_back(make_redirect(client, cookie, hop, drop, step()));
    auto payload = make_txn(client, cookie, drop, "/update.exe", step());
    payload.response->headers = {};
    payload.response->headers.add("Content-Type", "application/octet-stream");
    stream.push_back(payload);
    for (std::size_t i = 0; i < post_clue; ++i) {
      if (i % 48 == 47) {
        auto callback = make_txn(client, cookie,
                                 "c2-" + tag + "-" + std::to_string(i / 48) +
                                     ".example",
                                 "/report", step());
        callback.request.method = "POST";
        stream.push_back(callback);
        stream.push_back(make_txn(client, cookie, drop,
                                  "/m/" + std::to_string(i / 48), step(),
                                  "http://" + drop + "/update.exe"));
      } else {
        stream.push_back(make_txn(client, cookie,
                                  "news" + std::to_string(i % 7) + ".example",
                                  "/a/" + std::to_string(i), step(),
                                  "http://" + portal + "/"));
      }
    }
    start += 50'000;
  }

  dm::synth::TraceGenerator gen(seed ^ 0x5e12);
  const auto& families = dm::synth::exploit_kit_families();
  std::uint64_t episode_start = 1'700'000'000ULL * 1'000'000 + 5'000'000;
  const std::size_t infections = std::max<std::size_t>(4, clients);
  for (std::size_t i = 0; i < infections; ++i) {
    auto episode = gen.infection(families[i % families.size()]);
    retime(episode, episode_start);
    for (auto& txn : episode.transactions) stream.push_back(std::move(txn));
    episode_start += 3'000'000;
  }

  std::stable_sort(stream.begin(), stream.end(),
                   [](const HttpTransaction& a, const HttpTransaction& b) {
                     return a.request.ts_micros < b.request.ts_micros;
                   });
  return stream;
}

OnlineOptions base_online_options() {
  OnlineOptions options;
  options.redirect_chain_threshold = 2;
  return options;
}

dm::serve::ServeOptions base_serve_options(std::uint64_t seed) {
  dm::serve::ServeOptions options;
  options.reservoir.capacity_per_class = 64;
  options.reservoir.seed = seed;
  options.forest = dm::core::paper_forest_options(dm::core::kNumFeatures, seed);
  options.forest.num_trees = 20;  // retrains must fit inside the stream
  options.min_per_class = 1;
  return options;
}

using AlertKey = std::tuple<std::uint64_t, std::string, std::string,
                            std::uint64_t, std::string, std::size_t,
                            std::size_t>;

std::vector<AlertKey> sorted_keys(const std::vector<Alert>& alerts) {
  std::vector<AlertKey> keys;
  keys.reserve(alerts.size());
  for (const auto& a : alerts) {
    std::uint64_t score_bits;
    static_assert(sizeof(score_bits) == sizeof(a.score));
    std::memcpy(&score_bits, &a.score, sizeof(score_bits));
    keys.emplace_back(a.ts_micros, a.session_key, a.client, score_bits,
                      a.trigger_host, a.wcg_order, a.wcg_size);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

struct ShardedRun {
  double elapsed_ms = 0;
  double txn_per_s = 0;
  std::vector<Alert> alerts;
};

/// One sharded pass with the serving layer wired in (per-shard pinned
/// scorers + the verdict tap feeding `driver`'s reservoir).
ShardedRun run_sharded_serving(dm::serve::RetrainDriver& driver,
                               std::size_t shards,
                               const std::vector<HttpTransaction>& trace,
                               dm::obs::TraceSink* sink = nullptr,
                               dm::obs::FlightRecorder* flight = nullptr) {
  dm::runtime::ShardedOptions options;
  options.num_shards = shards;
  options.batch_size = 64;
  options.online = base_online_options();
  options.online.verdict_tap = driver.verdict_tap();
  if (sink != nullptr) {
    options.online.trace = sink;
    options.online.flight = flight;
  }
  options.scorer_factory = [&driver](std::size_t) {
    return driver.make_scorer();
  };
  dm::runtime::ShardedOnlineEngine engine(driver.handle().current(), options);
  const auto t0 = std::chrono::steady_clock::now();
  for (const auto& txn : trace) engine.observe(txn);
  engine.finish();
  const auto t1 = std::chrono::steady_clock::now();
  ShardedRun run;
  run.elapsed_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  run.txn_per_s = static_cast<double>(trace.size()) / (run.elapsed_ms / 1e3);
  run.alerts = engine.merged_alerts();
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  const auto json_path = dm::bench::extract_json_path(argc, argv);
  if (json_path && !dm::bench::check_baseline_hardware(*json_path)) return 1;
  const double scale = dm::bench::scale_from_env(0.5);
  const std::uint64_t seed = dm::bench::seed_from_env();
  const std::size_t shards = env_size("DM_BENCH_SHARDS", 2);
  const unsigned hardware = std::thread::hardware_concurrency();
  dm::bench::print_header(
      "bench_serve: model hot swap + throughput during background retrain",
      scale, seed);

  const std::size_t clients = std::max<std::size_t>(
      4, static_cast<std::size_t>(16 * scale));
  const std::size_t post_clue = env_size("DM_BENCH_POST", 192);
  const auto trace = build_trace(clients, post_clue, seed);
  const auto incumbent = trained_detector();
  std::printf("trace: %zu transactions (%zu clue-bearing sessions), "
              "%zu shards, %u hardware threads\n\n",
              trace.size(), clients, shards, hardware);

  // --- 1+2: no-op fences ---------------------------------------------------
  // Sequential engine, serve wired, no triggers: fill the reservoir once.
  auto fence_options = base_serve_options(seed);
  fence_options.shadow_before_cutover = false;  // publish straight through
  dm::serve::RetrainDriver fence_driver(incumbent, fence_options);
  {
    OnlineOptions online = base_online_options();
    online.scorer = fence_driver.make_scorer();
    online.verdict_tap = fence_driver.verdict_tap();
    dm::core::OnlineDetector engine(incumbent, online);
    for (const auto& txn : trace) engine.observe(txn);
  }
  if (!fence_driver.retrain_now()) {
    std::fprintf(stderr, "FATAL: first retrain on a filled reservoir was "
                         "skipped (%zu infection / %zu benign samples)\n",
                 fence_driver.reservoir().infection_count(),
                 fence_driver.reservoir().benign_count());
    return 1;
  }
  const std::string first = fence_driver.last_trained_serialization();
  fence_driver.retrain_now();
  if (fence_driver.last_trained_serialization() != first) {
    std::fprintf(stderr, "FATAL: retraining on an unchanged reservoir did "
                         "not reproduce a byte-identical forest\n");
    return 1;
  }
  std::printf("no-op retrain: byte-identical forest on an unchanged "
              "reservoir (%zu bytes, %llu samples)\n",
              first.size(),
              static_cast<unsigned long long>(fence_driver.reservoir().admitted()));

  // No-op swap: publish a structurally identical detector mid-stream; the
  // alert set must match a run with no swap at all.
  std::vector<AlertKey> no_swap_alerts;
  {
    OnlineOptions online = base_online_options();
    dm::core::OnlineDetector engine(incumbent, online);
    for (const auto& txn : trace) engine.observe(txn);
    no_swap_alerts = sorted_keys(engine.alerts());
  }
  {
    dm::serve::RetrainDriver driver(incumbent, base_serve_options(seed));
    OnlineOptions online = base_online_options();
    online.scorer = driver.make_scorer();
    dm::core::OnlineDetector engine(incumbent, online);
    const std::size_t half = trace.size() / 2;
    for (std::size_t i = 0; i < half; ++i) engine.observe(trace[i]);
    driver.handle().publish(
        std::make_shared<const dm::core::Detector>(*incumbent));
    for (std::size_t i = half; i < trace.size(); ++i) engine.observe(trace[i]);
    if (sorted_keys(engine.alerts()) != no_swap_alerts) {
      std::fprintf(stderr, "FATAL: a no-op mid-stream swap changed the alert "
                           "set\n");
      return 1;
    }
  }
  std::printf("no-op swap: alert set identical across a mid-stream publish "
              "(%zu alerts)\n\n", no_swap_alerts.size());

  // --- 3: swap latency under a live pin ------------------------------------
  std::vector<double> swap_ns;
  {
    dm::serve::ModelHandle handle(incumbent);
    auto pin = handle.pin();
    const auto other =
        std::make_shared<const dm::core::Detector>(*incumbent);
    constexpr int kSwaps = 512;
    swap_ns.reserve(kSwaps);
    for (int i = 0; i < kSwaps; ++i) {
      const auto next = (i % 2 == 0) ? other : incumbent;
      const auto t0 = std::chrono::steady_clock::now();
      handle.publish(next);
      const auto t1 = std::chrono::steady_clock::now();
      swap_ns.push_back(
          std::chrono::duration<double, std::nano>(t1 - t0).count());
      pin.get();  // reader refreshes between swaps, like a live shard would
    }
    std::sort(swap_ns.begin(), swap_ns.end());
  }
  const double swap_p50 = swap_ns[swap_ns.size() / 2];
  const double swap_p95 = swap_ns[swap_ns.size() * 95 / 100];
  std::printf("swap latency (publish under a live pin): p50=%.0f ns "
              "p95=%.0f ns over %zu swaps\n\n",
              swap_p50, swap_p95, swap_ns.size());

  // --- 4: throughput A/B ---------------------------------------------------
  // Steady state: serve wired (taps + pinned scorers live) but no triggers.
  dm::serve::RetrainDriver steady_driver(incumbent, base_serve_options(seed));
  run_sharded_serving(steady_driver, shards, trace);  // warm-up, untimed
  dm::serve::RetrainDriver steady_driver2(incumbent, base_serve_options(seed));
  const auto steady = run_sharded_serving(steady_driver2, shards, trace);

  // Retrain arm: count trigger fires background retrains + shadow phases
  // while the same trace streams.
  auto retrain_options = base_serve_options(seed);
  retrain_options.retrain_every_admissions = 48;
  retrain_options.shadow.min_queries = 32;
  retrain_options.shadow.max_queries = 256;
  retrain_options.shadow.agreement_threshold = 0.9;
  dm::serve::RetrainDriver retrain_driver(incumbent, retrain_options);
  const auto during = run_sharded_serving(retrain_driver, shards, trace);
  retrain_driver.drain();

  const double degradation_pct =
      (steady.txn_per_s - during.txn_per_s) / steady.txn_per_s * 100.0;
  std::printf("steady state:   %9.1f ms  %9.0f txn/s\n", steady.elapsed_ms,
              steady.txn_per_s);
  std::printf("during retrain: %9.1f ms  %9.0f txn/s  (%llu retrains, "
              "%llu swaps, %llu rejected)\n",
              during.elapsed_ms, during.txn_per_s,
              static_cast<unsigned long long>(retrain_driver.retrains()),
              static_cast<unsigned long long>(retrain_driver.swaps()),
              static_cast<unsigned long long>(
                  retrain_driver.candidates_rejected()));
  std::printf("degradation: %.1f%%   (target < 10%% on >= 8 hardware "
              "threads; on %u the retrain time-slices with scoring)\n",
              degradation_pct, hardware);

  // --- 5: persist/recover latency ------------------------------------------
  // Full durability barriers on: this measures what a promotion actually
  // costs on the retrain worker (never the scoring hot path).
  namespace fs = std::filesystem;
  const fs::path store_dir =
      fs::temp_directory_path() / "dm_bench_serve_store";
  fs::remove_all(store_dir);
  constexpr std::uint64_t kPersists = 48;
  std::vector<double> persist_ns;
  persist_ns.reserve(kPersists);
  {
    dm::serve::StoreOptions store_options;
    store_options.dir = store_dir.string();
    store_options.max_history = 8;
    dm::serve::ModelStore store(store_options);
    auto forest = incumbent->forest();
    for (std::uint64_t v = 1; v <= kPersists; ++v) {
      forest.set_model_version(v);
      dm::serve::ManifestEntry entry;
      entry.version = v;
      entry.parent = v - 1;
      entry.reason = v == 1 ? "initial" : "promote";
      const auto t0 = std::chrono::steady_clock::now();
      const bool ok = store.persist(forest, entry);
      const auto t1 = std::chrono::steady_clock::now();
      if (!ok) {
        std::fprintf(stderr, "FATAL: durable persist of version %llu failed\n",
                     static_cast<unsigned long long>(v));
        return 1;
      }
      persist_ns.push_back(
          std::chrono::duration<double, std::nano>(t1 - t0).count());
    }
    std::sort(persist_ns.begin(), persist_ns.end());
  }
  const double persist_p50 = persist_ns[persist_ns.size() / 2];
  const double persist_p95 = persist_ns[persist_ns.size() * 95 / 100];
  double recover_ns = 0;
  {
    dm::serve::StoreOptions store_options;
    store_options.dir = store_dir.string();
    store_options.max_history = 8;
    dm::serve::ModelStore store(store_options);
    const auto t0 = std::chrono::steady_clock::now();
    const auto recovered = store.recover();
    const auto t1 = std::chrono::steady_clock::now();
    recover_ns = std::chrono::duration<double, std::nano>(t1 - t0).count();
    if (!recovered || recovered->entry.version != kPersists) {
      std::fprintf(stderr, "FATAL: cold recovery landed on version %llu, "
                           "expected %llu\n",
                   static_cast<unsigned long long>(
                       recovered ? recovered->entry.version : 0),
                   static_cast<unsigned long long>(kPersists));
      return 1;
    }
  }
  fs::remove_all(store_dir);
  std::printf("\ndurable persist (fsync x2 + rename x2): p50=%.0f us "
              "p95=%.0f us over %llu promotions; cold recover()=%.0f us\n",
              persist_p50 / 1e3, persist_p95 / 1e3,
              static_cast<unsigned long long>(kPersists), recover_ns / 1e3);

  // --- 6: tracing overhead row (ISSUE 8) -----------------------------------
  // Same sharded serving pass with the causal-tracing layer wired through
  // both the online pipeline and the serve lifecycle: off vs default head
  // sampling (1/16 sessions) vs always-on.  Private sinks + in-memory
  // flight recorders keep the arms isolated from each other.
  auto traced_serving = [&](std::uint64_t sample_period) {
    dm::obs::TraceSink sink([&] {
      dm::obs::TraceOptions trace_options;
      trace_options.ring_capacity = 1 << 14;
      trace_options.sample_period = sample_period;
      return trace_options;
    }());
    sink.set_enabled(sample_period != 0);
    dm::obs::FlightRecorder flight{dm::obs::FlightRecorderOptions{}};
    auto serve_options = base_serve_options(seed);
    serve_options.trace = &sink;
    serve_options.flight = &flight;
    dm::serve::RetrainDriver driver(incumbent, serve_options);
    return run_sharded_serving(driver, shards, trace, &sink, &flight)
        .txn_per_s;
  };
  // Interleaved best-of-3: on small containers a sequential A-then-B layout
  // shows double-digit phantom deltas (the retrain A/B above demonstrates
  // how hard 1-core time-slicing skews wall clock).
  double trace_off = 0;
  double trace_sampled = 0;
  double trace_always = 0;
  for (int rep = 0; rep < 3; ++rep) {
    trace_off = std::max(trace_off, traced_serving(0));
    trace_sampled = std::max(trace_sampled, traced_serving(16));
    trace_always = std::max(trace_always, traced_serving(1));
  }
  const double trace_sampled_overhead_pct =
      (1.0 - trace_sampled / trace_off) * 100.0;
  const double trace_always_overhead_pct =
      (1.0 - trace_always / trace_off) * 100.0;
  std::printf("\ntracing overhead (sharded serving pass):\n");
  std::printf("  off        %9.0f txn/s\n", trace_off);
  std::printf("  sampled/16 %9.0f txn/s  (%+.2f%%, target <= 3%%)\n",
              trace_sampled, trace_sampled_overhead_pct);
  std::printf("  always-on  %9.0f txn/s  (%+.2f%%)\n", trace_always,
              trace_always_overhead_pct);

  if (json_path) {
    dm::bench::JsonRecord record;
    record.set("bench", "bench_serve");
    record.set("scale", scale);
    record.set("seed", seed);
    record.set("shards", static_cast<std::uint64_t>(shards));
    record.set("transactions", static_cast<std::uint64_t>(trace.size()));
    record.set("noop_retrain_byte_identical", 1);
    record.set("noop_swap_alert_identical", 1);
    record.set("swap_p50_ns", swap_p50);
    record.set("swap_p95_ns", swap_p95);
    record.set("steady_txn_per_s", steady.txn_per_s);
    record.set("retrain_txn_per_s", during.txn_per_s);
    record.set("degradation_pct", degradation_pct);
    record.set("retrains", retrain_driver.retrains());
    record.set("swaps", retrain_driver.swaps());
    record.set("candidates_rejected", retrain_driver.candidates_rejected());
    record.set("model_version", retrain_driver.version());
    record.set("persist_p50_ns", persist_p50);
    record.set("persist_p95_ns", persist_p95);
    record.set("recover_ns", recover_ns);
    record.set("store_versions_persisted", kPersists);
    record.set("trace_off_txn_per_s", trace_off);
    record.set("trace_sampled_txn_per_s", trace_sampled);
    record.set("trace_alwayson_txn_per_s", trace_always);
    record.set("trace_sampled_overhead_pct", trace_sampled_overhead_pct);
    record.set("trace_alwayson_overhead_pct", trace_always_overhead_pct);
    if (record.append_to(*json_path)) {
      std::printf("result record appended to %s\n", json_path->c_str());
    } else {
      std::fprintf(stderr, "WARNING: could not write %s\n", json_path->c_str());
    }
  }
  return 0;
}
