#include "passes.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <memory>

#include "core/features.h"
#include "core/wcg_builder.h"
#include "http/classify.h"
#include "http/parser.h"
#include "http/redirect_miner.h"
#include "http/transaction_stream.h"
#include "ml/serialization.h"
#include "net/packet.h"
#include "net/pcap.h"
#include "net/tcp_reassembly.h"
#include "obs/pipeline.h"
#include "runtime/sharded_online.h"

namespace pipebench {
namespace {

using Clock = std::chrono::steady_clock;
using dm::http::HttpTransaction;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

/// Scores exactly as Detector::score(wcg, cache) does (the detector is built
/// with default FeatureExtractorOptions), wrapping the two halves in spans.
class SpanScorer final : public dm::core::WcgScorer {
 public:
  SpanScorer(std::shared_ptr<const dm::core::Detector> detector,
             SpanRecorder* rec)
      : detector_(std::move(detector)), rec_(rec) {}

  double score(const dm::core::Wcg& wcg, dm::core::FeatureCache* cache) override {
    const auto score_span = rec_->begin("core.score");
    const std::uint64_t hits_before = cache != nullptr ? cache->hits : 0;
    const auto features_span = rec_->begin("core.features");
    const auto features = dm::core::extract_features(wcg, {}, cache);
    rec_->end(features_span);
    const auto infer_span = rec_->begin("ml.infer");
    const double proba = detector_->flat_forest().predict_proba(features);
    rec_->end(infer_span);
    rec_->end(score_span);
    ++counters_.calls;
    if (cache != nullptr) {
      ++(cache->hits > hits_before ? counters_.cache_hits
                                   : counters_.cache_misses);
    }
    return proba;
  }

  const ScoreCounters& counters() const noexcept { return counters_; }

 private:
  std::shared_ptr<const dm::core::Detector> detector_;
  SpanRecorder* rec_;
  ScoreCounters counters_;
};

std::uint64_t expiry_ns_total() {
  return dm::obs::session_metrics().expiry_ns.snapshot().sum;
}

}  // namespace

std::uint64_t PassResult::failures() const {
  return stats.classifier_failures + runtime.detector_failures +
         runtime.transactions_shed;
}

std::shared_ptr<const dm::core::Detector> load_detector(const std::string& path) {
  return std::make_shared<const dm::core::Detector>(
      dm::ml::load_forest_file(path));
}

double time_setup(const std::string& model_path) {
  const auto t0 = Clock::now();
  dm::runtime::ShardedOptions options;
  options.num_shards = kShards;
  auto engine = std::make_unique<dm::runtime::ShardedOnlineEngine>(
      load_detector(model_path), options);
  const double seconds = seconds_since(t0);
  engine.reset();  // finish() joins the idle workers, untimed
  return seconds;
}

Decoded decode(std::span<const std::uint8_t> capture) {
  Decoded d;
  dm::util::FaultStats faults;
  const auto view = dm::net::decode_pcap_view(capture, {}, &faults);
  d.packets = view.file.packets.size();
  d.txns = dm::http::transactions_from_pcap(view.file, &faults);
  d.faults = faults.snapshot();
  return d;
}

PassResult run_single(std::span<const std::uint8_t> capture,
                      const std::shared_ptr<const dm::core::Detector>& detector) {
  PassResult r;
  dm::core::OnlineDetector engine(detector);
  const auto t0 = Clock::now();
  dm::util::FaultStats faults;
  const auto view = dm::net::decode_pcap_view(capture, {}, &faults);
  auto txns = dm::http::transactions_from_pcap(view.file, &faults);
  for (auto& txn : txns) engine.observe(std::move(txn));
  r.alerts = engine.alerts();
  r.seconds = seconds_since(t0);
  r.transactions = txns.size();
  r.stats = engine.stats();
  r.quarantined = faults.total();
  return r;
}

PassResult run_sharded(std::span<const std::uint8_t> capture,
                       const std::shared_ptr<const dm::core::Detector>& detector,
                       ShardedTrace* trace) {
  PassResult r;
  dm::runtime::ShardedOptions options;
  options.num_shards = kShards;
  if (trace != nullptr) {
    trace->shards.resize(kShards);
    options.scorer_factory = [trace, &detector](std::size_t shard) {
      trace->shards[shard] = std::make_unique<SpanRecorder>(
          static_cast<std::uint32_t>(shard + 1), trace->dispatcher->epoch());
      return std::make_shared<SpanScorer>(detector, trace->shards[shard].get());
    };
  }
  dm::runtime::ShardedOnlineEngine engine(detector, options);
  SpanRecorder* rec = trace != nullptr ? trace->dispatcher : nullptr;
  const auto& pinned = dm::obs::session_metrics().bytes_pinned;
  const std::int64_t pinned_base = pinned.value();

  const auto t0 = Clock::now();
  const std::int32_t root = rec != nullptr ? rec->begin("pass") : -1;
  dm::util::FaultStats faults;
  std::int32_t span = rec != nullptr ? rec->begin("net.decode") : -1;
  const auto view = dm::net::decode_pcap_view(capture, {}, &faults);
  if (rec != nullptr) rec->end(span);
  span = rec != nullptr ? rec->begin("http.reconstruct") : -1;
  auto txns = dm::http::transactions_from_pcap(view.file, &faults);
  if (rec != nullptr) rec->end(span);
  std::int64_t pinned_peak = 0;
  for (std::size_t i = 0; i < txns.size(); ++i) {
    if (rec != nullptr) span = rec->begin("runtime.dispatch");
    engine.observe(std::move(txns[i]));
    if (rec != nullptr) rec->end(span);
    if (i % 64 == 0) pinned_peak = std::max(pinned_peak, pinned.value() - pinned_base);
  }
  span = rec != nullptr ? rec->begin("runtime.finish") : -1;
  engine.finish();
  if (rec != nullptr) rec->end(span);
  r.alerts = engine.merged_alerts();
  if (rec != nullptr) rec->end(root);
  r.seconds = seconds_since(t0);

  r.transactions = txns.size();
  r.stats = engine.aggregated_stats();
  r.runtime = engine.runtime_stats();
  r.quarantined = faults.total();
  r.pinned_peak_bytes = static_cast<std::size_t>(pinned_peak);
  return r;
}

PacedResult run_paced(std::vector<HttpTransaction> txns,
                      const std::shared_ptr<const dm::core::Detector>& detector,
                      double rate) {
  PacedResult r;
  r.txn_us.reserve(txns.size());
  r.late_us.reserve(txns.size());
  dm::core::OnlineDetector engine(detector);
  const auto interval = std::chrono::duration<double>(1.0 / rate);
  const auto t0 = Clock::now() + std::chrono::milliseconds(1);
  for (std::size_t i = 0; i < txns.size(); ++i) {
    const auto due =
        t0 + std::chrono::duration_cast<Clock::duration>(interval * static_cast<double>(i));
    auto start = Clock::now();
    while (start < due) start = Clock::now();  // open loop: never early
    const auto& stats = engine.stats();
    const std::size_t completed_before =
        stats.classifier_queries - stats.classifier_failures;
    engine.observe(std::move(txns[i]));
    const auto done = Clock::now();
    r.txn_us.push_back(micros(done - due));
    r.late_us.push_back(micros(start - due));
    if (stats.classifier_queries - stats.classifier_failures > completed_before) {
      r.verdict_us.push_back(micros(done - due));
    }
  }
  r.failures = engine.stats().classifier_failures;
  return r;
}

LayeredResult run_layered(std::span<const std::uint8_t> capture,
                          const std::shared_ptr<const dm::core::Detector>& detector,
                          SpanRecorder& rec) {
  LayeredResult r;
  auto scorer = std::make_shared<SpanScorer>(detector, &rec);
  dm::core::OnlineOptions options;
  options.scorer = scorer;
  dm::core::OnlineDetector engine(detector, options);
  const std::uint64_t expiry_before = expiry_ns_total();

  const auto t0 = Clock::now();
  const auto root = rec.begin("pass");
  dm::util::FaultStats faults;
  auto span = rec.begin("net.decode");
  const auto view = dm::net::decode_pcap_view(capture, {}, &faults);
  rec.end(span);

  span = rec.begin("net.reassembly");
  auto reassembler = std::make_unique<dm::net::TcpReassembler>(
      dm::net::ReassemblyOptions{}, &faults);
  for (const auto& pkt : view.file.packets) {
    if (const auto parsed = dm::net::parse_ethernet_ipv4_tcp(pkt.data)) {
      reassembler->ingest(*parsed, pkt.ts_micros);
    } else {
      faults.record(dm::util::DecodeErrorCode::kFrameUndecodable);
    }
  }
  rec.end(span);

  std::vector<HttpTransaction> txns;
  const auto flows = reassembler->flows();
  for (const dm::net::TcpFlow* flow : flows) {
    span = rec.begin("http.parse");
    auto parsed = dm::http::transactions_from_flow(*flow, &faults);
    txns.insert(txns.end(), std::make_move_iterator(parsed.begin()),
                std::make_move_iterator(parsed.end()));
    rec.end(span);
  }

  span = rec.begin("http.order");
  std::stable_sort(txns.begin(), txns.end(),
                   [](const HttpTransaction& a, const HttpTransaction& b) {
                     return a.request.ts_micros < b.request.ts_micros;
                   });
  rec.end(span);

  // http::transactions_from_pcap frees the flow buffers before it returns,
  // so the library pass pays for this before observe() starts.
  span = rec.begin("net.release");
  reassembler.reset();
  rec.end(span);

  // The stream identity the checks compare; a span of its own so the
  // waterfall still adds up.
  span = rec.begin("bench.keys");
  r.keys.reserve(txns.size());
  for (const auto& txn : txns) r.keys.push_back(key_of(txn));
  rec.end(span);

  for (auto& txn : txns) {
    span = rec.begin("core.observe");
    engine.observe(std::move(txn));
    rec.end(span);
    r.pass.pinned_peak_bytes =
        std::max(r.pass.pinned_peak_bytes, engine.session_bytes_pinned());
    r.pass.sessions_peak = std::max(r.pass.sessions_peak, engine.active_sessions());
  }
  r.pass.alerts = engine.alerts();
  rec.end(root);
  r.pass.seconds = seconds_since(t0);

  r.pass.transactions = txns.size();
  r.pass.stats = engine.stats();
  r.pass.quarantined = faults.total();
  r.flows = flows.size();
  r.score = scorer->counters();
  r.expiry_ns = expiry_ns_total() - expiry_before;
  return r;
}

SideTimes replay_classify_mine(const std::vector<HttpTransaction>& txns) {
  const dm::core::BuilderOptions builder;  // what OnlineOptions{} carries
  std::vector<const HttpTransaction*> eligible;
  eligible.reserve(txns.size());
  for (const auto& txn : txns) {
    if (txn.response && !builder.trusted.is_trusted(txn.server_host)) {
      eligible.push_back(&txn);
    }
  }
  SideTimes t;
  std::size_t sink = 0;
  auto t0 = Clock::now();
  for (const HttpTransaction* txn : eligible) {
    sink += static_cast<std::size_t>(dm::http::classify_payload(
        txn->response->content_type().value_or(""), txn->request.uri));
  }
  t.classify_ms = seconds_since(t0) * 1e3;
  t0 = Clock::now();
  for (const HttpTransaction* txn : eligible) {
    const bool hop = txn->response->is_redirect() ||
                     !dm::http::mine_redirects(*txn, builder.miner).empty();
    if (hop) sink += dm::http::mine_redirects(*txn, builder.miner).size();
  }
  t.mine_ms = seconds_since(t0) * 1e3;
  // Keeps the loops observable; the sum itself means nothing.
  if (sink == static_cast<std::size_t>(-1)) t.mine_ms += 1;
  return t;
}

}  // namespace pipebench
