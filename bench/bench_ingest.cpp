// Million-session ingest bench (ISSUE 9): the two scaling walls of the
// ingest path, measured with their correctness fences.
//
// Phase 1 — capture file ingest.  The file reader maps the capture and
// hands reconstruction span slices of the mapping (net/pcap_mmap.h).  Fence
// first: it must reconstruct the IDENTICAL transaction stream (count and
// order-sensitive digest) that in-memory reconstruction of the same bytes
// gives (decode_pcap_view + transactions_from_pcap); a throughput for a
// different answer is worthless.  Best-of-5 MB/s goes in the --json record.
//
// Phase 2 — budgeted session state at a million live sessions.  A stream of
// 1.25M distinct clients fills the detector past a 1.05M-session budget;
// the bench asserts resident sessions peak >= 1M, that RSS stays flat once
// the budget caps the map (fill-point RSS vs end-of-run RSS), and that the
// LRU evictions balance exactly (opened == resident + evicted).  Idle
// expiry walks the LRU list from its head and stops at the first live
// session, so the per-transaction cost is independent of the resident
// count — this bench is what the O(all-sessions) scan could not finish.
//
// Phase 3 — budget determinism fence.  On a trace whose live-session
// concurrency FITS the budget, the budgeted engine (sequential and sharded
// at 1/2/8 shards) must produce the bit-identical alert set of the
// unbounded sequential engine: a budget that never has to evict must be
// invisible.
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
#include "http/transaction_stream.h"
#include "net/pcap.h"
#include "runtime/sharded_online.h"
#include "synth/families.h"
#include "synth/generator.h"
#include "synth/pcap_export.h"

namespace {

using dm::core::Alert;
using dm::core::OnlineOptions;
using dm::http::HttpTransaction;

std::shared_ptr<const dm::core::Detector> trained_detector() {
  static const auto detector = [] {
    const auto corpus = dm::bench::build_corpus(42, 0.05);
    return std::make_shared<const dm::core::Detector>(
        dm::core::train_dynaminer(dm::bench::corpus_dataset(corpus), 42));
  }();
  return detector;
}

// ---------------------------------------------------------------- phase 1

/// A transaction stream's identity: its length and an order-sensitive
/// digest (order is part of the fence).
struct StreamId {
  std::size_t transactions = 0;
  std::size_t digest = 0;
  friend bool operator==(const StreamId&, const StreamId&) = default;
};

StreamId stream_id(const std::vector<HttpTransaction>& txns) {
  std::size_t h = txns.size();
  const auto mix = [&h](std::size_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  for (const auto& t : txns) {
    mix(std::hash<std::string>{}(t.client_host));
    mix(std::hash<std::string>{}(t.server_host));
    mix(std::hash<std::string>{}(t.request.uri));
    mix(static_cast<std::size_t>(t.request.ts_micros));
    mix(t.response ? static_cast<std::size_t>(t.response->status_code) : 0);
  }
  return {txns.size(), h};
}

/// One big capture file: `episodes` synth episodes' packets concatenated,
/// time-ordered, written under the system temp dir.
struct Capture {
  std::string path;
  std::uint64_t bytes = 0;
  /// The stream in-memory reconstruction of the same bytes gives.
  StreamId in_memory;
};

Capture build_capture(std::uint64_t seed, std::size_t episodes) {
  dm::synth::TraceGenerator gen(seed);
  const auto& families = dm::synth::exploit_kit_families();
  dm::net::PcapFile merged;
  for (std::size_t i = 0; i < episodes; ++i) {
    const auto episode = (i % 4 == 0)
                             ? gen.infection(families[i % families.size()])
                             : gen.benign();
    auto pcap = dm::synth::episode_to_pcap(episode);
    merged.link_type = pcap.link_type;
    for (auto& pkt : pcap.packets) merged.packets.push_back(std::move(pkt));
  }
  std::stable_sort(merged.packets.begin(), merged.packets.end(),
                   [](const dm::net::PcapPacket& a,
                      const dm::net::PcapPacket& b) {
                     return a.ts_micros < b.ts_micros;
                   });
  Capture capture;
  capture.path =
      (std::filesystem::temp_directory_path() / "bench_ingest_capture.pcap")
          .string();
  dm::net::write_pcap_file(capture.path, merged);
  const auto bytes = dm::net::write_pcap(merged);
  capture.bytes = bytes.size();
  capture.in_memory = stream_id(dm::http::transactions_from_pcap(
      dm::net::decode_pcap_view(bytes).file));
  return capture;
}

// ---------------------------------------------------------------- phase 2

/// Minimal single-transaction session opener: distinct client per index, no
/// clue material, so the hot path measured is exactly session create +
/// weeding + LRU and budget upkeep.
HttpTransaction make_fill_txn(std::size_t i, std::uint64_t ts_micros) {
  HttpTransaction txn;
  txn.client_host = "10." + std::to_string((i >> 16) & 0xff) + "." +
                    std::to_string((i >> 8) & 0xff) + "." +
                    std::to_string(i & 0xff) + "-" + std::to_string(i >> 24);
  txn.server_host = "origin" + std::to_string(i % 97) + ".example";
  txn.server_ip = "93.184.216.34";
  txn.request.method = "GET";
  txn.request.uri = "/index";
  txn.request.ts_micros = ts_micros;
  txn.request.headers.add("User-Agent", "Mozilla/5.0");
  dm::http::HttpResponse res;
  res.status_code = 200;
  res.ts_micros = ts_micros + 500;
  res.headers.add("Content-Type", "text/html");
  txn.response = res;
  return txn;
}

// ---------------------------------------------------------------- phase 3

/// Alert-bearing trace that FITS a 64-session budget: synth infection and
/// benign episodes, one distinct client each, starts staggered 2 s apart so
/// live-session concurrency stays far below the budget.  Infection episodes
/// against the trained detector alert reliably (core_online_test holds >=
/// half of them do).
std::vector<HttpTransaction> build_fence_trace(std::uint64_t seed) {
  dm::synth::TraceGenerator gen(seed + 7);
  const auto& families = dm::synth::exploit_kit_families();
  std::vector<HttpTransaction> stream;
  std::uint64_t episode_start = 1'700'000'000ULL * 1'000'000;
  for (std::size_t e = 0; e < 48; ++e) {
    auto episode = (e % 2 == 0)
                       ? gen.infection(families[e % families.size()])
                       : gen.benign();
    if (episode.transactions.empty()) continue;
    const std::string client = "172.16." + std::to_string(e / 200) + "." +
                               std::to_string(e % 200 + 1);
    const std::uint64_t base = episode.transactions.front().request.ts_micros;
    for (auto& txn : episode.transactions) {
      txn.client_host = client;
      txn.request.ts_micros = txn.request.ts_micros - base + episode_start;
      if (txn.response) {
        txn.response->ts_micros = txn.response->ts_micros - base + episode_start;
      }
      stream.push_back(std::move(txn));
    }
    episode_start += 2'000'000;
  }
  std::stable_sort(stream.begin(), stream.end(),
                   [](const HttpTransaction& a, const HttpTransaction& b) {
                     return a.request.ts_micros < b.request.ts_micros;
                   });
  return stream;
}

using AlertKey =
    std::tuple<std::uint64_t, std::string, std::string, std::uint64_t>;

std::vector<AlertKey> sorted_keys(const std::vector<Alert>& alerts) {
  std::vector<AlertKey> keys;
  keys.reserve(alerts.size());
  for (const auto& a : alerts) {
    std::uint64_t score_bits;
    static_assert(sizeof(score_bits) == sizeof(a.score));
    std::memcpy(&score_bits, &a.score, sizeof(score_bits));
    keys.emplace_back(a.ts_micros, a.session_key, a.client, score_bits);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

OnlineOptions fence_options(dm::core::SessionBudget budget) {
  OnlineOptions options;
  options.redirect_chain_threshold = 2;
  options.budget = budget;
  return options;
}

std::vector<Alert> run_sequential(const std::vector<HttpTransaction>& trace,
                                  dm::core::SessionBudget budget) {
  dm::core::OnlineDetector detector(trained_detector(),
                                    fence_options(budget));
  for (const auto& txn : trace) detector.observe(txn);
  return detector.alerts();
}

std::vector<Alert> run_sharded(std::size_t shards,
                               const std::vector<HttpTransaction>& trace,
                               dm::core::SessionBudget budget) {
  dm::runtime::ShardedOptions options;
  options.num_shards = shards;
  options.batch_size = 64;
  options.online = fence_options(budget);
  dm::runtime::ShardedOnlineEngine engine(trained_detector(), options);
  for (const auto& txn : trace) engine.observe(txn);
  engine.finish();
  return engine.merged_alerts();
}

}  // namespace

int main(int argc, char** argv) {
  const auto json_path = dm::bench::extract_json_path(argc, argv);
  const double scale = dm::bench::scale_from_env(1.0);
  const std::uint64_t seed = dm::bench::seed_from_env();
  dm::bench::print_header(
      "bench_ingest: capture file ingest + million-session budgeted state",
      scale, seed);
  if (json_path && !dm::bench::check_baseline_hardware(*json_path)) return 1;

  // --- phase 1: capture file ingest ---------------------------------------
  const std::size_t episodes =
      std::max<std::size_t>(64, static_cast<std::size_t>(1536 * scale));
  const Capture capture = build_capture(seed, episodes);
  std::printf("capture: %zu episodes, %.1f MB at %s\n", episodes,
              static_cast<double>(capture.bytes) / 1e6, capture.path.c_str());
  if (capture.in_memory.transactions == 0) {
    std::fprintf(stderr, "FATAL: the capture reconstructs no transaction — "
                         "the stream-identity fence would be vacuous\n");
    return 1;
  }

  constexpr int kDecodeReps = 5;
  double best_mb_per_s = 0;
  StreamId from_file;
  for (int rep = 0; rep < kDecodeReps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto txns = dm::http::transactions_from_pcap_file(capture.path);
    const double s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    best_mb_per_s =
        std::max(best_mb_per_s, static_cast<double>(capture.bytes) / 1e6 / s);
    from_file = stream_id(txns);
  }
  std::filesystem::remove(capture.path);

  if (!(from_file == capture.in_memory)) {
    std::fprintf(stderr,
                 "FATAL: the file reader reconstructed a different transaction "
                 "stream than in-memory reconstruction of the same bytes (%zu "
                 "vs %zu txns, digest %zx vs %zx)\n",
                 from_file.transactions, capture.in_memory.transactions,
                 from_file.digest, capture.in_memory.digest);
    return 1;
  }
  std::printf("file reader (best of %d): %8.1f MB/s  (%zu transactions, "
              "identical to in-memory reconstruction)\n\n",
              kDecodeReps, best_mb_per_s, from_file.transactions);

  // --- phase 2: million-session fill under budget -------------------------
  const std::size_t total =
      std::max<std::size_t>(20'000, static_cast<std::size_t>(1'250'000 * scale));
  const std::size_t budget_sessions =
      std::max<std::size_t>(total * 84 / 100, 1);
  OnlineOptions fill_options;
  fill_options.session_idle_timeout_s = 1e9;  // idle expiry out of the picture
  fill_options.budget.max_sessions = budget_sessions;
  dm::core::OnlineDetector detector(trained_detector(), fill_options);

  std::size_t resident_peak = 0;
  std::uint64_t rss_at_fill = 0;
  std::uint64_t ts = 1'700'000'000ULL * 1'000'000;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < total; ++i) {
    detector.observe(make_fill_txn(i, ts));
    ts += 1'000;
    resident_peak = std::max(resident_peak, detector.active_sessions());
    if (i + 1 == budget_sessions) {
      rss_at_fill = dm::bench::current_rss_bytes();
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double fill_s = std::chrono::duration<double>(t1 - t0).count();
  const double fill_txn_per_s = static_cast<double>(total) / fill_s;
  const std::uint64_t rss_at_end = dm::bench::current_rss_bytes();
  const double rss_flat_ratio =
      rss_at_fill > 0 ? static_cast<double>(rss_at_end) /
                            static_cast<double>(rss_at_fill)
                      : 0.0;
  const auto& stats = detector.stats();

  std::printf("session fill: %zu clients, budget %zu sessions\n", total,
              budget_sessions);
  std::printf("  resident peak    %zu\n", resident_peak);
  std::printf("  budget evictions %zu\n", stats.sessions_evicted);
  std::printf("  bytes pinned     %.1f MB (session storage accounting)\n",
              static_cast<double>(detector.session_bytes_pinned()) / 1e6);
  std::printf("  throughput       %.0f txn/s over %.1f s\n", fill_txn_per_s,
              fill_s);
  std::printf("  RSS at fill      %.1f MB\n",
              static_cast<double>(rss_at_fill) / 1e6);
  std::printf("  RSS at end       %.1f MB  (%.3fx of fill; flat <= 1.10x)\n",
              static_cast<double>(rss_at_end) / 1e6, rss_flat_ratio);

  bool failed = false;
  if (scale >= 1.0 && resident_peak < 1'000'000) {
    std::fprintf(stderr, "FATAL: resident peak %zu < 1M at full scale\n",
                 resident_peak);
    failed = true;
  }
  if (resident_peak > budget_sessions) {
    std::fprintf(stderr, "FATAL: resident peak %zu exceeded the %zu budget\n",
                 resident_peak, budget_sessions);
    failed = true;
  }
  if (stats.sessions_opened !=
      detector.active_sessions() + stats.sessions_expired +
          stats.sessions_evicted) {
    std::fprintf(stderr, "FATAL: session conservation broke: opened=%zu "
                         "resident=%zu expired=%zu evicted=%zu\n",
                 stats.sessions_opened, detector.active_sessions(),
                 stats.sessions_expired, stats.sessions_evicted);
    failed = true;
  }
  if (rss_flat_ratio > 1.10) {
    std::fprintf(stderr,
                 "FATAL: RSS grew %.3fx past the budget fill point "
                 "(budget is not bounding memory)\n",
                 rss_flat_ratio);
    failed = true;
  }
  if (failed) return 1;
  std::printf("  fences held: resident <= budget, conservation exact, RSS "
              "flat\n\n");

  // --- phase 3: budget determinism fence ----------------------------------
  const auto fence_trace = build_fence_trace(seed);
  const dm::core::SessionBudget fitting{64, 0};
  const auto unbounded = run_sequential(fence_trace, {});
  const auto reference = sorted_keys(unbounded);
  if (reference.empty()) {
    std::fprintf(stderr, "FATAL: fence trace produced no alerts — the "
                         "identity fence would be vacuous\n");
    return 1;
  }
  // Self-check: the comparison must object to an injected divergence, the
  // unbounded run with one alert dropped.
  auto dropped = unbounded;
  dropped.pop_back();
  if (sorted_keys(dropped) == reference) {
    std::fprintf(stderr, "FATAL: the alert-identity comparison accepted a run "
                         "with one alert dropped\n");
    return 1;
  }
  if (sorted_keys(run_sequential(fence_trace, fitting)) != reference) {
    std::fprintf(stderr, "FATAL: budgeted sequential alerts diverged from "
                         "unbounded on a trace that fits the budget\n");
    return 1;
  }
  for (const std::size_t shards : {1, 2, 8}) {
    if (sorted_keys(run_sharded(shards, fence_trace, fitting)) != reference) {
      std::fprintf(stderr,
                   "FATAL: %zu-shard budgeted alerts diverged from the "
                   "unbounded sequential reference\n",
                   shards);
      return 1;
    }
  }
  std::printf("alert identity: unbounded == budgeted == 1/2/8-shard budgeted "
              "(%zu alerts, score bits included)\n",
              reference.size());

  if (json_path) {
    dm::bench::JsonRecord record;
    record.set("bench", "bench_ingest");
    record.set("capture_mb", static_cast<double>(capture.bytes) / 1e6);
    record.set("decode_mmap_mb_per_s", best_mb_per_s);
    record.set("decode_transactions",
               static_cast<std::uint64_t>(from_file.transactions));
    record.set("fill_clients", static_cast<std::uint64_t>(total));
    record.set("session_budget", static_cast<std::uint64_t>(budget_sessions));
    record.set("resident_peak", static_cast<std::uint64_t>(resident_peak));
    record.set("budget_evictions",
               static_cast<std::uint64_t>(stats.sessions_evicted));
    record.set("bytes_pinned",
               static_cast<std::uint64_t>(detector.session_bytes_pinned()));
    record.set("fill_txn_per_s", fill_txn_per_s);
    record.set("rss_at_fill_bytes", rss_at_fill);
    record.set("rss_at_end_bytes", rss_at_end);
    record.set("rss_flat_ratio", rss_flat_ratio);
    record.set("fence_alerts", static_cast<std::uint64_t>(reference.size()));
    if (record.append_to(*json_path)) {
      std::printf("result record appended to %s\n", json_path->c_str());
    } else {
      std::fprintf(stderr, "WARNING: could not write %s\n", json_path->c_str());
    }
  }
  return 0;
}
