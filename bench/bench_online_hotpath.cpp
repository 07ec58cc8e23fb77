// Online hot-path A/B: OnlineDetector vs the naive reference engine
// (tests/reference_online.h) on one long-session corpus, plus the
// alert-identity fence.
//
// The workload is the regime the incremental path exists for: long-lived
// proxy sessions (hundreds of transactions under one session cookie) where
// a clue fires mid-stream and the session then KEEPS STREAMING — every
// further transaction re-queries the classifier until the session ends.
// The reference ("from-scratch") arm pays O(n) per update (scan every
// session, rescan the whole session history, rebuild the scoped WCG,
// recompute all 19 graph metrics, walk the pointer forest); the engine
// ("incremental") folds only the delta, serves metrics from the
// topology-version cache, skips provably-unchanged queries outright, and
// scores through the flattened ERF.
//
// The correctness fence runs over the timed trace plus 8 exploit-kit
// episodes, each on its own client, so it compares a non-empty alert set
// without changing what the A/B times: the engine's alerts — sequential
// and sharded at 1/2/8 shards — must be IDENTICAL (score bits included) to
// the reference engine's.  The process exits nonzero on divergence or when
// the reference raises no alert; a speedup for a wrong answer is worthless.
//
// Targets: >= 3x transaction throughput AND >= 3x lower p95 clue-to-verdict
// latency for the engine vs the reference.  `--json <path>` appends the
// result record (both arms + ratios) as one JSON line; BENCH_hotpath.json
// at the repo root holds the checked-in rows.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/online.h"
#include "core/trainer.h"
#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "reference_online.h"
#include "runtime/sharded_online.h"
#include "synth/dataset.h"

namespace {

using dm::core::Alert;
using dm::core::OnlineOptions;
using dm::core::reference::alert_keys;
using dm::http::HttpTransaction;

struct TraceShape {
  std::size_t clients = 16;     // crafted long sessions
  std::size_t pre_clue = 600;   // benign browsing before the clue
  std::size_t post_clue = 400;  // post-clue stream (mostly unrelated noise)
};

std::size_t env_size(const char* name, std::size_t fallback) {
  if (const char* s = std::getenv(name)) {
    const long long v = std::atoll(s);
    if (v >= 0) return static_cast<std::size_t>(v);
  }
  return fallback;
}

TraceShape trace_shape(double scale) {
  TraceShape shape;
  shape.clients = std::max<std::size_t>(
      4, static_cast<std::size_t>(16 * scale));
  shape.pre_clue = env_size("DM_BENCH_PRE", shape.pre_clue);
  shape.post_clue = env_size("DM_BENCH_POST", shape.post_clue);
  return shape;
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
  // Realistic browser request: the header block matters, because the
  // from-scratch rescan parses each transaction's Referer on every query.
  txn.request.headers.add("User-Agent", "Mozilla/5.0 (Windows NT 10.0)");
  txn.request.headers.add("Accept", "text/html,application/xhtml+xml");
  txn.request.headers.add("Accept-Language", "en-US,en;q=0.9");
  txn.request.headers.add("Accept-Encoding", "gzip, deflate");
  txn.request.headers.add("Connection", "keep-alive");
  txn.request.headers.add("Cookie", "PHPSESSID=" + cookie);
  if (!referrer.empty()) {
    txn.request.headers.add("Referer", referrer);
  }
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

/// One crafted long session: `pre_clue` benign requests, a 2-hop redirect
/// chain into a risky download (fires the clue under threshold 2), then
/// `post_clue` transactions — unrelated noise punctuated every 64 steps by
/// a callback POST to a never-seen host (retroactive implication: forces a
/// scope rescan in the engine) and a request referred from the drop
/// host (scoped-WCG growth, so not every post-clue query can be skipped).
void append_client_session(std::vector<HttpTransaction>& stream,
                           const TraceShape& shape, std::size_t c,
                           std::uint64_t start_micros) {
  const std::string client = "10.9." + std::to_string(c % 250) + ".7";
  const std::string cookie = "hot" + std::to_string(c);
  const std::string tag = std::to_string(c);
  constexpr std::uint64_t kStepMicros = 200'000;  // 5 txn/s per session
  std::uint64_t ts = start_micros;
  auto step = [&ts]() {
    const std::uint64_t now = ts;
    ts += kStepMicros;
    return now;
  };

  const std::string portal = "portal-" + tag + ".example";
  for (std::size_t i = 0; i < shape.pre_clue; ++i) {
    stream.push_back(make_txn(client, cookie,
                              "cdn" + std::to_string(i % 7) + "-site" + tag +
                                  ".example",
                              "/page/" + std::to_string(i), step(),
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

  for (std::size_t i = 0; i < shape.post_clue; ++i) {
    if (i % 96 == 95) {
      auto callback = make_txn(client, cookie,
                               "c2-" + tag + "-" + std::to_string(i / 96) +
                                   ".example",
                               "/report", step());
      callback.request.method = "POST";
      stream.push_back(callback);
      stream.push_back(make_txn(client, cookie, drop,
                                "/module/" + std::to_string(i / 96), step(),
                                "http://" + drop + "/update.exe"));
    } else {
      stream.push_back(make_txn(client, cookie,
                                "news" + std::to_string(i % 9) + ".example",
                                "/a/" + std::to_string(i), step(),
                                "http://" + portal + "/"));
    }
  }
}

void sort_by_time(std::vector<HttpTransaction>& stream) {
  std::stable_sort(stream.begin(), stream.end(),
                   [](const HttpTransaction& a, const HttpTransaction& b) {
                     return a.request.ts_micros < b.request.ts_micros;
                   });
}

/// Timed benchmark trace: the crafted long sessions interleaved with synth
/// benign browsing.  Synth infection episodes are deliberately absent —
/// their sessions are short, so their clue-to-verdict samples cost the same
/// in both arms and would only blur the A/B; the fence adds them instead
/// (with_exploit_kits).
std::vector<HttpTransaction> build_trace(const TraceShape& shape,
                                         std::uint64_t seed) {
  std::vector<HttpTransaction> stream;
  std::uint64_t start = 1'700'000'000ULL * 1'000'000;
  for (std::size_t c = 0; c < shape.clients; ++c) {
    append_client_session(stream, shape, c, start);
    start += 50'000;  // stagger session starts
  }

  dm::synth::TraceGenerator gen(seed);
  std::vector<dm::synth::Episode> episodes;
  for (int i = 0; i < 32; ++i) episodes.push_back(gen.benign());
  std::uint64_t episode_start = 1'700'000'000ULL * 1'000'000 + 10'000'000;
  for (auto& episode : episodes) {
    if (episode.transactions.empty()) continue;
    const std::uint64_t base = episode.transactions.front().request.ts_micros;
    for (auto& txn : episode.transactions) {
      txn.request.ts_micros = txn.request.ts_micros - base + episode_start;
      if (txn.response) {
        txn.response->ts_micros =
            txn.response->ts_micros - base + episode_start;
      }
      stream.push_back(std::move(txn));
    }
    episode_start += 2'000'000;
  }

  sort_by_time(stream);
  return stream;
}

/// Fence trace: `trace` plus 8 exploit-kit episodes, each on its own client
/// and staggered onto the trace's clock, so the fence compares alerts.
std::vector<HttpTransaction> with_exploit_kits(std::vector<HttpTransaction> trace,
                                               std::uint64_t seed) {
  dm::synth::TraceGenerator gen(seed + 1);
  const auto& families = dm::synth::exploit_kit_families();
  std::uint64_t start = 1'700'000'000ULL * 1'000'000 + 20'000'000;
  for (std::size_t i = 0; i < 8; ++i) {
    auto episode = gen.infection(families[i % families.size()]);
    if (episode.transactions.empty()) continue;
    const std::string client = "10.66.0." + std::to_string(i + 1);
    const std::uint64_t base = episode.transactions.front().request.ts_micros;
    for (auto& txn : episode.transactions) {
      txn.client_host = client;
      txn.request.ts_micros = txn.request.ts_micros - base + start;
      if (txn.response) {
        txn.response->ts_micros = txn.response->ts_micros - base + start;
      }
      trace.push_back(std::move(txn));
    }
    start += 3'000'000;
  }
  sort_by_time(trace);
  return trace;
}

OnlineOptions online_options(dm::obs::MetricsRegistry* metrics) {
  OnlineOptions options;
  options.redirect_chain_threshold = 2;
  options.metrics = metrics;
  return options;
}

/// One incremental-mode pass with causal tracing at `sample_period`
/// (0 = sink disabled).  A private sink and an in-memory flight recorder
/// keep the arm self-contained.  Returns txn/s.
double traced_pass(const std::vector<HttpTransaction>& trace,
                   std::uint64_t sample_period) {
  dm::obs::TraceSink sink([&] {
    dm::obs::TraceOptions options;
    options.ring_capacity = 1 << 14;
    options.sample_period = sample_period;
    return options;
  }());
  sink.set_enabled(sample_period != 0);
  dm::obs::FlightRecorder flight{[] {
    dm::obs::FlightRecorderOptions options;  // no dir: in-memory dumps only
    return options;
  }()};
  dm::obs::MetricsRegistry metrics;
  auto options = online_options(&metrics);
  options.trace = &sink;
  options.flight = &flight;
  dm::core::OnlineDetector detector(trained_detector(), options);
  const auto t0 = std::chrono::steady_clock::now();
  for (const auto& txn : trace) detector.observe(txn);
  const auto t1 = std::chrono::steady_clock::now();
  const double s = std::chrono::duration<double>(t1 - t0).count();
  return static_cast<double>(trace.size()) / s;
}

/// Best-of-`reps` throughput for the off / default-sampled / always-on
/// tracing arms, interleaved round-robin so scheduler and thermal drift on
/// small containers hits every arm alike (a sequential A-then-B layout
/// routinely shows ±20% phantom deltas on one core).
struct TraceOverheadRow {
  double off = 0;
  double sampled = 0;
  double always = 0;
};

TraceOverheadRow trace_overhead(const std::vector<HttpTransaction>& trace,
                                int reps) {
  TraceOverheadRow row;
  for (int rep = 0; rep < reps; ++rep) {
    row.off = std::max(row.off, traced_pass(trace, 0));
    row.sampled = std::max(row.sampled, traced_pass(trace, 16));
    row.always = std::max(row.always, traced_pass(trace, 1));
  }
  return row;
}

struct ModeResult {
  std::string name;
  double elapsed_ms = 0;
  double txn_per_s = 0;
  double c2v_p50_ns = 0;
  double c2v_p95_ns = 0;
  std::uint64_t c2v_count = 0;
  dm::core::OnlineStats stats;
  std::vector<Alert> alerts;
};

/// Fills the timing and clue-to-verdict fields from one arm's private
/// registry (each arm's histogram is isolated, so the A/B never mixes
/// samples).
ModeResult summarize(const std::string& name, std::size_t transactions,
                     double elapsed_ms,
                     const dm::obs::MetricsRegistry& metrics) {
  ModeResult result;
  result.name = name;
  result.elapsed_ms = elapsed_ms;
  result.txn_per_s = static_cast<double>(transactions) / (elapsed_ms / 1e3);
  const auto snap = metrics.snapshot();
  if (const auto* h = snap.histogram("dm.detect.clue_to_verdict_ns")) {
    result.c2v_p50_ns = h->p50();
    result.c2v_p95_ns = h->p95();
    result.c2v_count = h->count;
  }
  return result;
}

double elapsed_ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

ModeResult run_engine(const std::vector<HttpTransaction>& trace,
                      const std::string& name) {
  dm::obs::MetricsRegistry metrics;
  dm::core::OnlineDetector detector(trained_detector(),
                                    online_options(&metrics));
  const auto t0 = std::chrono::steady_clock::now();
  for (const auto& txn : trace) detector.observe(txn);
  auto result = summarize(name, trace.size(), elapsed_ms_since(t0), metrics);
  result.stats = detector.stats();
  result.alerts = detector.alerts();
  return result;
}

/// The reference arm.  The reference engine scores a session in the same
/// observe() call that fires its clue, so that call's wall time stands in
/// for its clue-to-verdict latency (an upper bound: it includes the
/// session scan and clue inference).
ModeResult run_reference(const std::vector<HttpTransaction>& trace,
                         const std::string& name) {
  dm::obs::MetricsRegistry metrics;
  auto& c2v = metrics.histogram("dm.detect.clue_to_verdict_ns");
  dm::core::reference::ReferenceOnline reference(*trained_detector(),
                                                 online_options(nullptr));
  const auto t0 = std::chrono::steady_clock::now();
  for (const auto& txn : trace) {
    const std::size_t clues = reference.clues_fired();
    const auto call = std::chrono::steady_clock::now();
    reference.observe(txn);
    if (reference.clues_fired() != clues) {
      c2v.record(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - call)
              .count()));
    }
  }
  auto result = summarize(name, trace.size(), elapsed_ms_since(t0), metrics);
  result.stats.clues_fired = reference.clues_fired();
  result.stats.classifier_queries = reference.verdicts().size();
  result.stats.alerts = reference.alerts().size();
  result.alerts = reference.alerts();
  return result;
}

std::vector<Alert> run_sharded(std::size_t shards,
                               const std::vector<HttpTransaction>& trace) {
  dm::runtime::ShardedOptions options;
  options.num_shards = shards;
  options.batch_size = 64;
  options.online = online_options(nullptr);
  dm::runtime::ShardedOnlineEngine engine(trained_detector(), options);
  for (const auto& txn : trace) engine.observe(txn);
  engine.finish();
  return engine.merged_alerts();
}

void print_mode(const ModeResult& r) {
  std::printf("%-13s %9.1f ms  %9.0f txn/s  queries=%-6zu skipped=%-6zu "
              "rescans=%-4zu alerts=%zu\n",
              r.name.c_str(), r.elapsed_ms, r.txn_per_s,
              r.stats.classifier_queries, r.stats.queries_skipped_unchanged,
              r.stats.scope_rescans, r.stats.alerts);
  std::printf("%-13s clue-to-verdict: n=%llu p50=%.1f us p95=%.1f us\n",
              "", static_cast<unsigned long long>(r.c2v_count),
              r.c2v_p50_ns / 1e3, r.c2v_p95_ns / 1e3);
}

}  // namespace

int main(int argc, char** argv) {
  const auto json_path = dm::bench::extract_json_path(argc, argv);
  const double scale = dm::bench::scale_from_env(1.0);
  const std::uint64_t seed = dm::bench::seed_from_env();
  dm::bench::print_header(
      "bench_online_hotpath: incremental engine vs from-scratch reference",
      scale, seed);

  const auto shape = trace_shape(scale);
  const auto trace = build_trace(shape, seed);
  std::printf("trace: %zu transactions (%zu long sessions: %zu pre-clue + "
              "%zu post-clue each)\n\n",
              trace.size(), shape.clients, shape.pre_clue, shape.post_clue);

  dm::obs::set_enabled(true);

  // Warm-up untimed pass (page in the trace, the model, the allocator).
  run_engine(trace, "warmup");

  const auto scratch = run_reference(trace, "from-scratch");
  const auto incremental = run_engine(trace, "incremental");
  print_mode(scratch);
  print_mode(incremental);

  // --- correctness fence: identical alert sets, score bits included -------
  const auto fence_trace = with_exploit_kits(trace, seed);
  const auto reference = alert_keys(run_reference(fence_trace, "fence").alerts);
  if (reference.empty()) {
    std::fprintf(stderr, "FATAL: vacuous fence: the reference engine raised "
                         "no alert on the %zu-transaction fence trace\n",
                 fence_trace.size());
    return 1;
  }
  const auto sequential = run_engine(fence_trace, "fence").alerts;
  if (alert_keys(sequential) != reference) {
    std::fprintf(stderr, "FATAL: engine alert set diverged from the "
                         "reference (%zu vs %zu alerts)\n",
                 sequential.size(), reference.size());
    return 1;
  }
  for (const std::size_t shards : {1, 2, 8}) {
    if (alert_keys(run_sharded(shards, fence_trace)) != reference) {
      std::fprintf(stderr,
                   "FATAL: %zu-shard engine alert set diverged from the "
                   "reference\n",
                   shards);
      return 1;
    }
  }
  std::printf("\nalert sets identical: reference, engine, 1/2/8 shards "
              "(%zu alerts over %zu fence transactions)\n",
              reference.size(), fence_trace.size());

  const double throughput_ratio = incremental.txn_per_s / scratch.txn_per_s;
  const double p95_ratio = scratch.c2v_p95_ns /
                           std::max(incremental.c2v_p95_ns, 1.0);
  std::printf("\nthroughput: %.2fx   (target >= 3x)\n", throughput_ratio);
  std::printf("clue-to-verdict p95: %.2fx lower   (target >= 3x)\n", p95_ratio);

  // --- tracing overhead arms (ISSUE 8): off vs default sampling vs always-on.
  constexpr int kTraceReps = 7;
  const auto overhead = trace_overhead(trace, kTraceReps);
  const double trace_off = overhead.off;
  const double trace_sampled = overhead.sampled;
  const double trace_always = overhead.always;
  const double sampled_overhead_pct = (1.0 - trace_sampled / trace_off) * 100.0;
  const double always_overhead_pct = (1.0 - trace_always / trace_off) * 100.0;
  std::printf("\ntracing overhead (incremental engine, best of %d):\n",
              kTraceReps);
  std::printf("  off        %9.0f txn/s\n", trace_off);
  std::printf("  sampled/16 %9.0f txn/s  (%+.2f%%, target <= 3%%)\n",
              trace_sampled, sampled_overhead_pct);
  std::printf("  always-on  %9.0f txn/s  (%+.2f%%)\n", trace_always,
              always_overhead_pct);

  if (json_path) {
    dm::bench::JsonRecord record;
    record.set("bench", "bench_online_hotpath");
    record.set("transactions", static_cast<std::uint64_t>(trace.size()));
    record.set("long_sessions", static_cast<std::uint64_t>(shape.clients));
    record.set("alerts", static_cast<std::uint64_t>(reference.size()));
    record.set("fromscratch_ms", scratch.elapsed_ms);
    record.set("fromscratch_txn_per_s", scratch.txn_per_s);
    record.set("fromscratch_queries",
               static_cast<std::uint64_t>(scratch.stats.classifier_queries));
    record.set("fromscratch_c2v_p50_ns", scratch.c2v_p50_ns);
    record.set("fromscratch_c2v_p95_ns", scratch.c2v_p95_ns);
    record.set("incremental_ms", incremental.elapsed_ms);
    record.set("incremental_txn_per_s", incremental.txn_per_s);
    record.set("incremental_queries",
               static_cast<std::uint64_t>(incremental.stats.classifier_queries));
    record.set("incremental_skipped",
               static_cast<std::uint64_t>(
                   incremental.stats.queries_skipped_unchanged));
    record.set("incremental_rescans",
               static_cast<std::uint64_t>(incremental.stats.scope_rescans));
    record.set("incremental_c2v_p50_ns", incremental.c2v_p50_ns);
    record.set("incremental_c2v_p95_ns", incremental.c2v_p95_ns);
    record.set("throughput_ratio", throughput_ratio);
    record.set("c2v_p95_ratio", p95_ratio);
    record.set("trace_off_txn_per_s", trace_off);
    record.set("trace_sampled_txn_per_s", trace_sampled);
    record.set("trace_alwayson_txn_per_s", trace_always);
    record.set("trace_sampled_overhead_pct", sampled_overhead_pct);
    record.set("trace_alwayson_overhead_pct", always_overhead_pct);
    if (record.append_to(*json_path)) {
      std::printf("result record appended to %s\n", json_path->c_str());
    } else {
      std::fprintf(stderr, "WARNING: could not write %s\n", json_path->c_str());
    }
  }
  return 0;
}
