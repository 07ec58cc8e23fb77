// The sharded runtime's correctness invariant: on the same time-ordered
// trace, the ShardedOnlineEngine must produce an alert set IDENTICAL to the
// sequential core::OnlineDetector — same session keys, timestamps, scores,
// triggers — at any shard count.  Client-sharding plus the detector's
// pure-function session semantics (per-client keys, lazy idle-liveness) is
// what makes this hold; this test is the regression fence around both.
// Runs under ThreadSanitizer via the `tsan` ctest label.
#include "runtime/sharded_online.h"

#include <gtest/gtest-spi.h>
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "core/trainer.h"
#include "http/transaction_stream.h"
#include "net/packet.h"
#include "synth/dataset.h"
#include "synth/families.h"
#include "synth/pcap_export.h"
#include "util/fault_stats.h"

namespace dm::runtime {
namespace {

using dm::core::Alert;
using dm::core::OnlineOptions;
using dm::http::HttpTransaction;

std::shared_ptr<const dm::core::Detector> shared_detector() {
  static const auto detector = [] {
    const auto gt = dm::synth::generate_ground_truth(100, 0.06);
    std::vector<dm::core::Wcg> infections;
    std::vector<dm::core::Wcg> benign;
    for (const auto& e : gt.infections) {
      infections.push_back(dm::core::build_wcg(e.transactions));
    }
    for (const auto& e : gt.benign) {
      benign.push_back(dm::core::build_wcg(e.transactions));
    }
    return std::make_shared<const dm::core::Detector>(dm::core::train_dynaminer(
        dm::core::dataset_from_wcgs(infections, benign), 5));
  }();
  return detector;
}

OnlineOptions online_options() {
  OnlineOptions options;
  options.redirect_chain_threshold = 2;
  return options;
}

/// Interleaved mixed trace: episodes rebased onto a common clock with
/// staggered starts so many clients are concurrently active (the workload
/// shape sharding exists for).
std::vector<HttpTransaction> mixed_trace(std::uint64_t seed,
                                         int benign_episodes,
                                         int infection_episodes) {
  dm::synth::TraceGenerator gen(seed);
  std::vector<dm::synth::Episode> episodes;
  for (int i = 0; i < benign_episodes; ++i) episodes.push_back(gen.benign());
  const auto& families = dm::synth::exploit_kit_families();
  for (int i = 0; i < infection_episodes; ++i) {
    episodes.push_back(
        gen.infection(families[static_cast<std::size_t>(i) % families.size()]));
  }

  std::vector<HttpTransaction> stream;
  constexpr std::uint64_t kStaggerMicros = 400'000;  // 0.4 s between starts
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
}

/// Comparable projection of an alert (scores compared bit-exactly: both
/// engines query the very same forest on the very same WCGs).
using AlertKey = std::tuple<std::uint64_t, std::string, std::string, double,
                            std::string, std::size_t, std::size_t>;

AlertKey key_of(const Alert& alert) {
  return {alert.ts_micros, alert.session_key, alert.client,     alert.score,
          alert.trigger_host, alert.wcg_order, alert.wcg_size};
}

std::vector<AlertKey> sorted_keys(const std::vector<Alert>& alerts) {
  std::vector<AlertKey> keys;
  keys.reserve(alerts.size());
  for (const auto& alert : alerts) keys.push_back(key_of(alert));
  std::sort(keys.begin(), keys.end());
  return keys;
}

std::vector<Alert> run_sequential(const std::vector<HttpTransaction>& stream) {
  dm::core::OnlineDetector sequential(shared_detector(), online_options());
  for (const auto& txn : stream) sequential.observe(txn);
  return sequential.alerts();
}

/// The shard-count fence's engine: small batches and queues, so the trace
/// crosses many batch boundaries.
ShardedOptions fence_options(std::size_t shards) {
  ShardedOptions options;
  options.num_shards = shards;
  options.batch_size = 16;
  options.queue_capacity = 32;
  options.online = online_options();
  return options;
}

/// The fence's one comparison: a sharded run's alerts equal the sequential
/// engine's, score bits included.
void expect_same_alerts(const std::vector<Alert>& sharded,
                        const std::vector<AlertKey>& expected,
                        const std::string& what) {
  EXPECT_EQ(sorted_keys(sharded), expected) << "alert set diverged at " << what;
}

TEST(ShardedOnlineEngineTest, ShardAssignmentIsAPureFunctionOfTheClient) {
  HttpTransaction txn;
  txn.client_host = "10.1.2.3";
  txn.server_host = "a.example";
  const std::size_t shard = ShardedOnlineEngine::shard_of(txn, 8);
  EXPECT_LT(shard, 8u);
  txn.server_host = "b.example";  // server must not matter
  txn.request.uri = "/other";
  EXPECT_EQ(ShardedOnlineEngine::shard_of(txn, 8), shard);
  EXPECT_EQ(ShardedOnlineEngine::shard_of(txn, 1), 0u);
}

TEST(ShardedOnlineEngineTest, AlertSetsIdenticalAcross1_2_8Shards) {
  const auto stream = mixed_trace(/*seed=*/777, /*benign=*/60, /*infections=*/10);
  ASSERT_GT(stream.size(), 500u);
  const auto expected = sorted_keys(run_sequential(stream));
  ASSERT_FALSE(expected.empty()) << "trace produced no alerts; test is vacuous";

  for (const std::size_t shards : {1u, 2u, 8u}) {
    ShardedOnlineEngine engine(shared_detector(), fence_options(shards));
    for (const auto& txn : stream) engine.observe(txn);
    engine.finish();
    expect_same_alerts(engine.merged_alerts(), expected,
                       std::to_string(shards) + " shard(s)");
    EXPECT_EQ(engine.runtime_stats().transactions_in, stream.size());
    EXPECT_EQ(engine.runtime_stats().transactions_out, stream.size());
    EXPECT_EQ(engine.aggregated_stats().transactions_seen, stream.size());
  }
}

TEST(ShardedOnlineEngineTest, FenceFailsOnAnInjectedDivergence) {
  // Feed the sharded run the trace minus the transaction that tipped one
  // session into its alert: the fence's comparison must object.
  const auto stream = mixed_trace(/*seed=*/777, /*benign=*/60, /*infections=*/10);
  const auto expected = sorted_keys(run_sequential(stream));
  ASSERT_FALSE(expected.empty());
  const std::uint64_t alert_ts = std::get<0>(expected.front());
  const std::string& alert_client = std::get<2>(expected.front());
  auto tampered = stream;
  const auto trigger = std::find_if(
      tampered.begin(), tampered.end(), [&](const HttpTransaction& txn) {
        return txn.client_host == alert_client &&
               txn.request.ts_micros == alert_ts;
      });
  ASSERT_NE(trigger, tampered.end());
  tampered.erase(trigger);
  ShardedOnlineEngine engine(shared_detector(), fence_options(8));
  for (const auto& txn : tampered) engine.observe(txn);
  engine.finish();
  EXPECT_NONFATAL_FAILURE(
      expect_same_alerts(engine.merged_alerts(), expected, "tampered"),
      "alert set diverged at tampered");
}

TEST(ShardedOnlineEngineTest, MergedAlertsAreTimeOrdered) {
  const auto stream = mixed_trace(/*seed=*/778, /*benign=*/40, /*infections=*/8);
  ShardedOptions options;
  options.num_shards = 4;
  options.online = online_options();
  ShardedOnlineEngine engine(shared_detector(), options);
  for (const auto& txn : stream) engine.observe(txn);
  engine.finish();
  const auto alerts = engine.merged_alerts();
  for (std::size_t i = 1; i < alerts.size(); ++i) {
    EXPECT_LE(alerts[i - 1].ts_micros, alerts[i].ts_micros);
  }
}

TEST(ShardedOnlineEngineTest, StatsAccountForEveryTransaction) {
  const auto stream = mixed_trace(/*seed=*/779, /*benign=*/30, /*infections=*/4);
  ShardedOptions options;
  options.num_shards = 4;
  options.batch_size = 8;
  options.online = online_options();
  ShardedOnlineEngine engine(shared_detector(), options);
  for (const auto& txn : stream) engine.observe(txn);
  engine.finish();
  const auto snap = engine.runtime_stats();
  EXPECT_EQ(snap.transactions_in, stream.size());
  EXPECT_EQ(snap.transactions_out, stream.size());
  EXPECT_GE(snap.batches_dispatched,
            stream.size() / options.batch_size);  // partial batches flush too
  EXPECT_GE(snap.queue_highwater, 1u);
  EXPECT_LE(snap.queue_highwater, options.queue_capacity);
  ASSERT_EQ(snap.per_shard_transactions.size(), 4u);
  std::uint64_t across_shards = 0;
  for (const auto n : snap.per_shard_transactions) across_shards += n;
  EXPECT_EQ(across_shards, stream.size());
}

TEST(ShardedOnlineEngineTest, DefaultDepthBoundsTransactionsInFlight) {
  // At the default depth the engine holds a bounded slice of the stream,
  // not the capture: after observe() returns, a shard has at most
  // (depth + 2) x batch_size transactions in flight (queued, at its worker,
  // and pending).  The hook makes the workers lag, so the queues fill and
  // backpressure, not the workers' pace, is what holds the bound.
  const auto stream = mixed_trace(/*seed=*/781, /*benign=*/300, /*infections=*/30);
  ASSERT_GE(stream.size(), 3000u);
  const auto expected = sorted_keys(run_sequential(stream));
  ASSERT_FALSE(expected.empty()) << "trace produced no alerts; test is vacuous";

  ShardedOptions options;
  options.num_shards = 3;
  options.online = online_options();
  options.observe_fault_hook = [](const HttpTransaction&) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  };
  const std::uint64_t bound =
      3 * (options.queue_capacity + 2) * options.batch_size;
  EXPECT_LE(bound, 1152u);

  ShardedOnlineEngine engine(shared_detector(), options);
  for (const auto& txn : stream) {
    engine.observe(txn);
    const auto snap = engine.runtime_stats();
    ASSERT_LE(snap.transactions_in - snap.transactions_out, bound)
        << "after " << snap.transactions_in << " transactions";
  }
  engine.finish();
  const auto snap = engine.runtime_stats();
  // The workers did lag: a queue filled, so backpressure was exercised.
  EXPECT_EQ(snap.queue_highwater, options.queue_capacity);
  EXPECT_EQ(snap.transactions_in, stream.size());
  EXPECT_EQ(snap.transactions_out, stream.size());
  expect_same_alerts(engine.merged_alerts(), expected, "the default depth");
}

TEST(ShardedOnlineEngineTest, IdleShardsFlushPartialBatches) {
  // Batching must not trade latency for throughput silently: a partial batch
  // whose oldest transaction is older than flush_idle_micros of STREAM time
  // is dispatched by the next observe, not held hostage until finish().
  ShardedOptions options;
  options.num_shards = 2;
  options.batch_size = 1024;  // never fills: only the idle rule can dispatch
  options.flush_idle_micros = 1'000'000;
  options.online = online_options();
  ShardedOnlineEngine engine(shared_detector(), options);

  const auto make = [](std::string client, std::uint64_t ts) {
    HttpTransaction txn;
    txn.client_host = std::move(client);
    txn.server_host = "svc.example";
    txn.request.method = "GET";
    txn.request.uri = "/";
    txn.request.ts_micros = ts;
    return txn;
  };

  // Two clients that land on different shards.
  const std::string client_a = "10.9.0.1";
  const std::size_t shard_a = ShardedOnlineEngine::shard_of(make(client_a, 0), 2);
  std::string client_b;
  for (int i = 2; client_b.empty(); ++i) {
    std::string candidate = "10.9.0." + std::to_string(i);
    if (ShardedOnlineEngine::shard_of(make(candidate, 0), 2) != shard_a) {
      client_b = std::move(candidate);
    }
  }

  const std::uint64_t t0 = 1'600'000'000ULL * 1'000'000;
  engine.observe(make(client_a, t0));
  EXPECT_EQ(engine.runtime_stats().idle_flushes, 0u);
  // 2 s of stream time later a transaction for the OTHER shard arrives;
  // shard A's one-transaction batch is now stale and must go out.  Shard B's
  // own fresh pending stays batched.
  engine.observe(make(client_b, t0 + 2'000'000));
  EXPECT_EQ(engine.runtime_stats().idle_flushes, 1u);

  engine.finish();
  const auto snap = engine.runtime_stats();
  EXPECT_EQ(snap.transactions_in, 2u);
  EXPECT_EQ(snap.transactions_out, 2u);
  EXPECT_EQ(engine.aggregated_stats().transactions_seen, 2u);
}

TEST(ShardedOnlineEngineTest, FinishIsIdempotentAndImpliedByDestructor) {
  ShardedOptions options;
  options.num_shards = 2;
  options.online = online_options();
  ShardedOnlineEngine engine(shared_detector(), options);
  const auto stream = mixed_trace(/*seed=*/780, /*benign=*/5, /*infections=*/1);
  for (const auto& txn : stream) engine.observe(txn);
  engine.finish();
  engine.finish();  // idempotent
  EXPECT_EQ(engine.runtime_stats().transactions_out, stream.size());
  // Post-finish observe is a caller bug: counted (and asserting in debug
  // builds) — covered in fault_injection_test.
}

TEST(ShardedOnlineEngineTest, MergedCaptureMatchesSequentialAcross1_2_8Shards) {
  // Ten clients' episodes in one capture, one data frame garbled: at 1, 2
  // and 8 shards, the engine fed transactions_from_pcap of the capture must
  // raise the alerts of a sequential engine over the same stream, score
  // bits included, while reconstruction counts the one undecodable frame.
  dm::synth::TraceGenerator gen(920);
  std::vector<dm::synth::Episode> episodes;
  for (int i = 0; i < 6; ++i) episodes.push_back(gen.benign());
  for (const char* family : {"Angler", "Neutrino", "Nuclear", "RIG"}) {
    episodes.push_back(gen.infection(dm::synth::family_by_name(family)));
  }
  dm::synth::Episode merged;
  std::uint64_t start = 1'500'000'000ULL * 1'000'000;
  int client = 0;
  for (auto& episode : episodes) {
    if (episode.transactions.empty()) continue;
    const std::string ip = "10.91.0." + std::to_string(++client);
    const std::uint64_t base = episode.transactions.front().request.ts_micros;
    for (auto& txn : episode.transactions) {
      txn.client_host = ip;
      txn.request.ts_micros = txn.request.ts_micros - base + start;
      if (txn.response) {
        txn.response->ts_micros = txn.response->ts_micros - base + start;
      }
      merged.transactions.push_back(std::move(txn));
    }
    start += 400'000;
  }
  std::stable_sort(merged.transactions.begin(), merged.transactions.end(),
                   [](const HttpTransaction& a, const HttpTransaction& b) {
                     return a.request.ts_micros < b.request.ts_micros;
                   });
  auto capture = dm::synth::episode_to_pcap(merged);
  // Garble the ethertype of the first frame that carries TCP payload (a
  // benign client's request) so it no longer decodes.
  const auto data_frame = std::find_if(
      capture.packets.begin(), capture.packets.end(),
      [](const dm::net::PcapPacket& pkt) {
        const auto parsed = dm::net::parse_ethernet_ipv4_tcp(pkt.data);
        return parsed && !parsed->payload.empty();
      });
  ASSERT_NE(data_frame, capture.packets.end());
  data_frame->data[12] = 0xde;
  data_frame->data[13] = 0xad;

  const auto expected =
      sorted_keys(run_sequential(dm::http::transactions_from_pcap(capture)));
  ASSERT_FALSE(expected.empty()) << "merged capture raised no alerts";

  for (const std::size_t shards : {1u, 2u, 8u}) {
    const std::string what = std::to_string(shards) + " shard(s)";
    dm::util::FaultStats faults;
    auto stream = dm::http::transactions_from_pcap(capture, &faults);
    EXPECT_EQ(faults.count(dm::util::DecodeErrorCode::kFrameUndecodable), 1u)
        << what;
    const std::size_t transactions = stream.size();
    ShardedOnlineEngine engine(shared_detector(), fence_options(shards));
    for (auto& txn : stream) engine.observe(std::move(txn));
    engine.finish();
    const auto alerts = engine.merged_alerts();
    EXPECT_FALSE(alerts.empty()) << what;
    expect_same_alerts(alerts, expected, what);
    EXPECT_EQ(engine.aggregated_stats().transactions_seen, transactions) << what;
  }
}

}  // namespace
}  // namespace dm::runtime
