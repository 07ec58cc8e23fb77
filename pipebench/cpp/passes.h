// The timed passes: capture bytes -> alerts through each engine shape, the
// open-loop paced replay, the layered pass that spans every layer from the
// outside, and the classify/mine side pass.  All run on the program's
// defaults (OnlineOptions{}, the process-wide metrics registry, causal
// tracing off).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/detector.h"
#include "core/online.h"
#include "measure.h"
#include "runtime/stats.h"
#include "util/fault_stats.h"
#include "workload.h"

namespace pipebench {

/// Shards of the parallel engine shape: with the dispatcher they fill the
/// 4 cores the benchmark is sized for.
inline constexpr std::size_t kShards = 3;

/// Open-loop offer rate of the paced replay (about a third of the
/// single-thread detect capacity on every workload).
inline constexpr double kPacedRatePerSecond = 20'000.0;

/// Loads a forest file and compiles it into a detector; throws on a
/// missing or malformed file.
std::shared_ptr<const dm::core::Detector> load_detector(const std::string& path);

/// Seconds to load the model, compile the detector and start a
/// kShards-shard engine's workers (the engine is torn down untimed).
double time_setup(const std::string& model_path);

struct Decoded {
  std::vector<dm::http::HttpTransaction> txns;
  std::size_t packets = 0;
  dm::util::FaultStatsSnapshot faults;
};

/// net::decode_pcap_view + http::transactions_from_pcap, faults counted.
Decoded decode(std::span<const std::uint8_t> capture);

struct PassResult {
  double seconds = 0;  // decode through the alert list
  std::size_t transactions = 0;
  std::vector<dm::core::Alert> alerts;
  dm::core::OnlineStats stats;
  std::uint64_t quarantined = 0;  // decode faults
  dm::runtime::StatsSnapshot runtime;  // sharded pass only
  /// Largest session_bytes_pinned() seen (sharded: the additive
  /// dm.session.bytes_pinned gauge, sampled by the dispatcher); sharded and
  /// layered passes only.
  std::size_t pinned_peak_bytes = 0;
  std::size_t sessions_peak = 0;  // layered pass only

  /// Failed operations: classifier and detector failures, shed transactions.
  std::uint64_t failures() const;
};

/// Full pipeline on one core::OnlineDetector.
PassResult run_single(std::span<const std::uint8_t> capture,
                      const std::shared_ptr<const dm::core::Detector>& detector);

/// Spans recorded by a traced sharded pass: the dispatcher's lane and one
/// lane per shard scorer.
struct ShardedTrace {
  SpanRecorder* dispatcher = nullptr;
  std::vector<std::unique_ptr<SpanRecorder>> shards;
};

/// Full pipeline on a kShards-shard runtime::ShardedOnlineEngine.  With
/// `trace`, records runtime.dispatch / runtime.finish spans on the
/// dispatcher lane and core.score trees on per-shard lanes.
PassResult run_sharded(std::span<const std::uint8_t> capture,
                       const std::shared_ptr<const dm::core::Detector>& detector,
                       ShardedTrace* trace = nullptr);

struct PacedResult {
  std::vector<double> txn_us;      // due -> observe() returned, every txn
  std::vector<double> verdict_us;  // the same, txns that completed a verdict
  std::vector<double> late_us;     // due -> observe() called
  std::uint64_t failures = 0;
};

/// Offers `txns` to one OnlineDetector on a fixed schedule of `rate` per
/// second, whatever its progress.
PacedResult run_paced(std::vector<dm::http::HttpTransaction> txns,
                      const std::shared_ptr<const dm::core::Detector>& detector,
                      double rate);

/// Counters from the scorer the layered pass installs.
struct ScoreCounters {
  std::uint64_t calls = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
};

struct LayeredResult {
  PassResult pass;
  std::vector<TxnKey> keys;  // the ordered stream handed to observe()
  std::size_t flows = 0;
  ScoreCounters score;
  std::uint64_t expiry_ns = 0;  // dm.session.expiry_ns accrued in the pass
};

/// The single-thread pipeline unrolled into its public calls, each wrapped
/// in a span on `rec`: net.decode, net.reassembly, http.parse (per flow),
/// http.order, net.release (freeing the flow buffers), bench.keys (the
/// check's stream copy), core.observe (per transaction) with core.score ->
/// {core.features, ml.infer} from an installed WcgScorer.  The whole pass
/// is one root span, "pass".
LayeredResult run_layered(std::span<const std::uint8_t> capture,
                          const std::shared_ptr<const dm::core::Detector>& detector,
                          SpanRecorder& rec);

struct SideTimes {
  double classify_ms = 0;
  double mine_ms = 0;
};

/// Replays the classify_payload / mine_redirects calls observe() makes per
/// transaction, with the same arguments, outside any detector.
SideTimes replay_classify_mine(const std::vector<dm::http::HttpTransaction>& txns);

}  // namespace pipebench
