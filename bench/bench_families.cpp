// Per-family evaluation harness (ISSUE 10): every catalog trace family —
// classic exploit kits, classic benign, calibrated modern-web benign, and
// the four adversarial evasions — is pushed through the FULL pipeline
// (pcap export -> decode -> TCP reassembly -> HTTP reconstruction -> online
// WCG -> ERF verdict), sequentially AND through the sharded engine, and the
// harness reports per-family recall / precision / FP-rate plus
// clue-to-verdict latency.
//
// Each family run shares one fixed benign-browsing background (distinct
// client block), so precision is measured against realistic competing
// traffic, not against an empty capture.  Fixed seeds end to end: the same
// (DM_SEED, DM_SCALE) always reproduces the same table.  `--json <path>`
// appends one JSONL record per family; EXPERIMENTS.md's "Adversarial trace
// families" table is produced by exactly this binary.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "bench_common.h"
#include "core/online.h"
#include "http/transaction_stream.h"
#include "obs/metrics.h"
#include "runtime/sharded_online.h"
#include "synth/pcap_export.h"
#include "util/hash.h"
#include "util/rng.h"

namespace {

using dm::core::Alert;
using dm::http::HttpTransaction;

std::shared_ptr<const dm::core::Detector> trained_detector(std::uint64_t seed,
                                                           double scale) {
  const auto corpus = dm::bench::build_corpus(seed, std::max(0.05, scale * 0.2));
  return std::make_shared<const dm::core::Detector>(
      dm::core::train_dynaminer(dm::bench::corpus_dataset(corpus), seed));
}

/// Client IP for episode `i` of a block ("10.200" = family under test,
/// "10.100" = shared benign background) — unique per episode so alerts can
/// be attributed back to the episode that caused them.
std::string block_client(const char* block, std::size_t i) {
  return std::string(block) + "." + std::to_string(i / 200) + "." +
         std::to_string(2 + i % 200);
}

/// Pcap round trip: the episode is exported to genuine capture bytes and
/// reconstructed through net/ + http/ — the same decode stack production
/// traffic crosses.
std::vector<HttpTransaction> decode_episode(const dm::synth::Episode& episode) {
  return dm::http::transactions_from_pcap(dm::synth::episode_to_pcap(episode));
}

/// The shared background: classic benign browsing, one episode per slot,
/// decoded once and reused for every family run.
std::vector<HttpTransaction> build_background(std::uint64_t seed,
                                              std::size_t episodes) {
  dm::synth::TraceGenerator gen(dm::util::stream_seed(seed, 0xb6u));
  std::vector<HttpTransaction> stream;
  for (std::size_t i = 0; i < episodes; ++i) {
    auto episode = gen.benign();
    const std::string client = block_client("10.100", i);
    for (auto& txn : episode.transactions) txn.client_host = client;
    for (auto& txn : decode_episode(episode)) stream.push_back(std::move(txn));
  }
  return stream;
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

struct FamilyResult {
  dm::synth::TraceFamily family;
  std::size_t episodes = 0;
  std::size_t transactions = 0;
  std::size_t detected_episodes = 0;   // family episodes with >= 1 alert
  std::size_t family_alerts = 0;       // alerts attributed to family clients
  std::size_t background_alerts = 0;   // alerts on the benign background
  double detection_rate = 0;           // recall (malicious) / FP rate (benign)
  double precision = 0;                // family_alerts / all alerts
  double c2v_p50_ns = 0;
  double c2v_p95_ns = 0;
  std::uint64_t c2v_count = 0;
  std::uint64_t clues_fired = 0;
  bool sharded_identical = false;
};

FamilyResult evaluate_family(
    const dm::synth::TraceFamily& family, std::uint64_t seed,
    std::size_t episodes,
    const std::vector<HttpTransaction>& background,
    const std::shared_ptr<const dm::core::Detector>& detector) {
  FamilyResult r;
  r.family = family;
  r.episodes = episodes;

  // One stream: N family episodes (unique clients) over the shared benign
  // background, time-ordered.
  std::vector<HttpTransaction> stream = background;
  std::unordered_map<std::string, std::size_t> episode_of_client;
  for (std::size_t i = 0; i < episodes; ++i) {
    auto episode = dm::synth::episode_for_family(
        dm::util::stream_seed(seed, static_cast<std::uint64_t>(i)), family);
    const std::string client = block_client("10.200", i);
    episode_of_client[client] = i;
    for (auto& txn : episode.transactions) txn.client_host = client;
    for (auto& txn : decode_episode(episode)) stream.push_back(std::move(txn));
  }
  std::stable_sort(stream.begin(), stream.end(),
                   [](const HttpTransaction& a, const HttpTransaction& b) {
                     return a.request.ts_micros < b.request.ts_micros;
                   });
  r.transactions = stream.size();

  // Sequential reference, private metrics registry per family.
  dm::obs::MetricsRegistry metrics;
  dm::core::OnlineOptions options;
  options.metrics = &metrics;
  dm::core::OnlineDetector sequential(detector, options);
  for (const auto& txn : stream) sequential.observe(txn);
  const auto alerts = sequential.alerts();
  r.clues_fired = sequential.stats().clues_fired;

  std::set<std::size_t> detected;
  for (const auto& a : alerts) {
    const auto it = episode_of_client.find(a.client);
    if (it != episode_of_client.end()) {
      ++r.family_alerts;
      detected.insert(it->second);
    } else {
      ++r.background_alerts;
    }
  }
  r.detected_episodes = detected.size();
  r.detection_rate =
      static_cast<double>(r.detected_episodes) / static_cast<double>(episodes);
  r.precision = alerts.empty() ? 1.0
                               : static_cast<double>(r.family_alerts) /
                                     static_cast<double>(alerts.size());
  const auto snap = metrics.snapshot();
  if (const auto* h = snap.histogram("dm.detect.clue_to_verdict_ns")) {
    r.c2v_p50_ns = h->p50();
    r.c2v_p95_ns = h->p95();
    r.c2v_count = h->count;
  }

  // Sharded leg: the same stream through the concurrent engine must produce
  // a bit-identical alert set (score bits included).
  dm::runtime::ShardedOptions sharded_options;
  sharded_options.num_shards = 8;
  sharded_options.batch_size = 64;
  sharded_options.online = dm::core::OnlineOptions{};
  dm::runtime::ShardedOnlineEngine engine(detector, sharded_options);
  for (const auto& txn : stream) engine.observe(txn);
  engine.finish();
  r.sharded_identical = sorted_keys(engine.merged_alerts()) ==
                        sorted_keys(alerts);
  return r;
}

const char* rate_label(const dm::synth::TraceFamily& family) {
  return family.malicious ? "recall" : "fp-rate";
}

}  // namespace

int main(int argc, char** argv) {
  const auto json_path = dm::bench::extract_json_path(argc, argv);
  const double scale = dm::bench::scale_from_env(0.25);
  const std::uint64_t seed = dm::bench::seed_from_env();
  dm::bench::print_header(
      "bench_families: per-family recall / precision / FP-rate through the "
      "full pipeline",
      scale, seed);
  if (json_path && !dm::bench::check_baseline_hardware(*json_path)) return 1;

  const auto episodes = static_cast<std::size_t>(
      std::max(12.0, 48.0 * scale));
  const auto detector = trained_detector(seed, scale);
  const auto background = build_background(seed, episodes);
  std::printf("%zu episodes/family + %zu-episode benign background "
              "(pcap round trip, sequential + 8-shard)\n\n",
              episodes, episodes);

  std::printf("%-16s %-10s %4s %7s  %-7s %7s  %9s %6s  %11s %11s  %s\n",
              "family", "kind", "mal", "txns", "metric", "value", "precision",
              "clues", "c2v p50 us", "c2v p95 us", "shard=seq");

  bool all_sharded_identical = true;
  std::size_t compared_alerts = 0;
  std::vector<FamilyResult> results;
  for (const auto& family : dm::synth::trace_family_catalog()) {
    auto r = evaluate_family(family, seed, episodes, background, detector);
    all_sharded_identical = all_sharded_identical && r.sharded_identical;
    compared_alerts += r.family_alerts + r.background_alerts;
    std::printf("%-16s %-10s %4s %7zu  %-7s %6.1f%%  %8.1f%% %6llu  "
                "%11.1f %11.1f  %s\n",
                family.name.c_str(),
                std::string(dm::synth::family_kind_name(family.kind)).c_str(),
                family.malicious ? "yes" : "no", r.transactions,
                rate_label(family), r.detection_rate * 100.0,
                r.precision * 100.0,
                static_cast<unsigned long long>(r.clues_fired),
                r.c2v_p50_ns / 1e3, r.c2v_p95_ns / 1e3,
                r.sharded_identical ? "yes" : "DIVERGED");
    results.push_back(std::move(r));
  }

  if (!all_sharded_identical) {
    std::fprintf(stderr, "\nFATAL: sharded alert set diverged from the "
                         "sequential reference for at least one family\n");
    return 1;
  }
  if (compared_alerts == 0) {
    std::fprintf(stderr, "\nFATAL: no family raised an alert — the "
                         "sequential vs 8-shard identity check is vacuous\n");
    return 1;
  }
  std::printf("\nalert sets identical sequential vs 8-shard for all %zu "
              "families (%zu alerts compared)\n",
              results.size(), compared_alerts);

  // Headline summary the EXPERIMENTS.md claims rest on: benign families must
  // hold the precision floor, and at least one adversarial family must
  // demonstrably stress the detector.
  double worst_benign_fp = 0;
  double worst_adversarial_recall = 1.0;
  std::string worst_adversarial = "-";
  for (const auto& r : results) {
    if (!r.family.malicious) {
      worst_benign_fp = std::max(worst_benign_fp, r.detection_rate);
    } else if (r.family.kind == dm::synth::FamilyKind::kAdversarial &&
               r.detection_rate < worst_adversarial_recall) {
      worst_adversarial_recall = r.detection_rate;
      worst_adversarial = r.family.name;
    }
  }
  std::printf("worst benign FP rate: %.1f%%   most evasive family: %s "
              "(recall %.1f%%)\n",
              worst_benign_fp * 100.0, worst_adversarial.c_str(),
              worst_adversarial_recall * 100.0);

  if (json_path) {
    bool ok = true;
    for (const auto& r : results) {
      dm::bench::JsonRecord record;
      record.set("bench", "bench_families");
      record.set("family", r.family.name);
      record.set("kind",
                 std::string(dm::synth::family_kind_name(r.family.kind)));
      record.set("malicious", r.family.malicious ? 1 : 0);
      record.set("episodes", static_cast<std::uint64_t>(r.episodes));
      record.set("transactions", static_cast<std::uint64_t>(r.transactions));
      record.set("family_alerts", static_cast<std::uint64_t>(r.family_alerts));
      record.set("background_alerts",
                 static_cast<std::uint64_t>(r.background_alerts));
      record.set("detected_episodes",
                 static_cast<std::uint64_t>(r.detected_episodes));
      record.set(r.family.malicious ? "recall" : "fp_rate", r.detection_rate);
      record.set("precision", r.precision);
      record.set("clues_fired", r.clues_fired);
      record.set("c2v_p50_ns", r.c2v_p50_ns);
      record.set("c2v_p95_ns", r.c2v_p95_ns);
      record.set("c2v_count", r.c2v_count);
      record.set("sharded_identical", r.sharded_identical ? 1 : 0);
      record.set("scale", scale);
      record.set("seed", static_cast<std::uint64_t>(seed));
      ok = record.append_to(*json_path) && ok;
    }
    if (ok) {
      std::printf("%zu result records appended to %s\n", results.size(),
                  json_path->c_str());
    } else {
      std::fprintf(stderr, "WARNING: could not write %s\n",
                   json_path->c_str());
    }
  }
  return 0;
}
