// Detection-path fences for the adversarial trace families (ISSUE 10):
//
//  * shard-identity regression — every adversarial family's stream through
//    ShardedOnlineEngine at 1/2/8 shards produces an alert set bit-identical
//    (score bits included) to the sequential OnlineDetector, and the fence
//    is non-vacuous: the mixed stream provably raises alerts, and the
//    comparison objects to a reference with one alert dropped or one score
//    bit flipped;
//  * fault-injection coverage — the seeded mutators from tests/fault_inject.h
//    run over adversarial captures with zero crashes and exact quarantine
//    accounting, and structure-preserving mutations leave alerts
//    bit-identical.
//
// Runs under the `synth`, `perf`, `fault` and `tsan` ctest labels (the
// sharded runs are exactly what ThreadSanitizer should watch).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/online.h"
#include "core/trainer.h"
#include "fault_inject.h"
#include "http/transaction_stream.h"
#include "net/pcap.h"
#include "runtime/sharded_online.h"
#include "synth/dataset.h"
#include "synth/pcap_export.h"
#include "util/fault_stats.h"

namespace dm {
namespace {

using dm::core::Alert;
using dm::http::HttpTransaction;
using dm::util::DecodeErrorCode;
using dm::util::FaultStats;

std::shared_ptr<const dm::core::Detector> shared_detector() {
  static const auto detector = [] {
    const auto gt = dm::synth::generate_ground_truth(80, 0.06);
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

dm::core::OnlineOptions online_options() {
  dm::core::OnlineOptions options;
  options.redirect_chain_threshold = 2;
  return options;
}

dm::synth::Episode adversarial_episode(std::uint64_t seed,
                                       const std::string& name) {
  return dm::synth::episode_for_family(
      seed, dm::synth::trace_family_by_name(name));
}

/// A time-ordered stream of several episodes under distinct clients.
std::vector<HttpTransaction> merged_stream(
    std::vector<dm::synth::Episode> episodes) {
  std::vector<HttpTransaction> stream;
  std::size_t c = 0;
  for (auto& episode : episodes) {
    const std::string client = "10.50." + std::to_string(c / 200) + "." +
                               std::to_string(2 + c % 200);
    ++c;
    for (auto& txn : episode.transactions) {
      txn.client_host = client;
      stream.push_back(std::move(txn));
    }
  }
  std::stable_sort(stream.begin(), stream.end(),
                   [](const HttpTransaction& a, const HttpTransaction& b) {
                     return a.request.ts_micros < b.request.ts_micros;
                   });
  return stream;
}

std::vector<Alert> sequential_alerts(const std::vector<HttpTransaction>& stream) {
  dm::core::OnlineDetector detector(shared_detector(), online_options());
  for (const auto& txn : stream) detector.observe(txn);
  return detector.alerts();
}

std::vector<Alert> sharded_alerts(const std::vector<HttpTransaction>& stream,
                                  std::size_t shards) {
  dm::runtime::ShardedOptions options;
  options.num_shards = shards;
  options.batch_size = 16;
  options.online = online_options();
  dm::runtime::ShardedOnlineEngine engine(shared_detector(), options);
  for (const auto& txn : stream) engine.observe(txn);
  engine.finish();
  return engine.merged_alerts();
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

constexpr const char* kAdversarialFamilies[] = {"MimicGraph", "SlowDrip",
                                                "BenignPad", "DomainRotate"};

// ---------------------------------------------------------------------------
// Shard-identity regression
// ---------------------------------------------------------------------------

TEST(AdversarialShardIdentityTest, PerFamilyAlertSetsAreBitIdenticalAt128Shards) {
  // SlowDrip's set is empty: it fires no clue at l = 2.  The other three
  // families raise alerts, so the fence as a whole compares some.
  std::size_t compared = 0;
  for (const char* family : kAdversarialFamilies) {
    std::vector<dm::synth::Episode> episodes;
    for (std::uint64_t i = 0; i < 3; ++i) {
      episodes.push_back(adversarial_episode(300 + i, family));
    }
    const auto stream = merged_stream(std::move(episodes));
    const auto reference = sorted_keys(sequential_alerts(stream));
    compared += reference.size();
    for (const std::size_t shards : {1, 2, 8}) {
      EXPECT_EQ(sorted_keys(sharded_alerts(stream, shards)), reference)
          << family << " diverged at " << shards << " shards";
    }
  }
  EXPECT_GT(compared, 0u) << "no family raised an alert; fence vacuous";
}

TEST(AdversarialShardIdentityTest, MixedStreamFenceIsNonVacuous) {
  // All four adversarial families plus two classic exploit-kit episodes in
  // one stream.  The classics guarantee the alert set is non-empty, so the
  // equality below can never pass vacuously.
  std::vector<dm::synth::Episode> episodes;
  for (std::uint64_t i = 0; i < static_cast<std::uint64_t>(
                                    std::size(kAdversarialFamilies));
       ++i) {
    episodes.push_back(adversarial_episode(400 + i, kAdversarialFamilies[i]));
  }
  {
    dm::synth::TraceGenerator gen(61);
    episodes.push_back(gen.infection(dm::synth::family_by_name("Angler")));
    episodes.push_back(gen.infection(dm::synth::family_by_name("RIG")));
  }
  const auto stream = merged_stream(std::move(episodes));

  const auto alerts = sequential_alerts(stream);
  ASSERT_FALSE(alerts.empty()) << "mixed stream raised no alerts; fence vacuous";
  const auto reference = sorted_keys(alerts);
  std::vector<AlertKey> sharded;
  for (const std::size_t shards : {1, 2, 8}) {
    sharded = sorted_keys(sharded_alerts(stream, shards));
    EXPECT_EQ(sharded, reference)
        << "mixed adversarial stream diverged at " << shards << " shards";
  }

  // Injected divergence: the same comparison must object to a reference
  // with one alert dropped, and to one whose score is off by its low bit.
  auto dropped = reference;
  dropped.pop_back();
  EXPECT_NE(sharded, dropped);
  auto flipped = reference;
  std::get<3>(flipped.front()) ^= 1;
  EXPECT_NE(sharded, flipped);
}

// ---------------------------------------------------------------------------
// Fault-injection coverage over adversarial captures
// ---------------------------------------------------------------------------

TEST(AdversarialFaultTest, GarbledFramesAreCountedExactlyPerFamily) {
  std::uint64_t seed = 500;
  for (const char* family : kAdversarialFamilies) {
    auto capture =
        dm::synth::episode_to_pcap(adversarial_episode(seed, family));
    dm::util::Rng rng(seed++);
    const std::size_t injected =
        dm::faultinject::garble_ethertype(capture, 2, rng);
    ASSERT_EQ(injected, 2u) << family;
    FaultStats faults;
    (void)dm::http::transactions_from_pcap(capture, &faults);
    EXPECT_EQ(faults.count(DecodeErrorCode::kFrameUndecodable), injected)
        << family;
  }
}

TEST(AdversarialFaultTest, TruncatedTailQuarantinesExactlyOnce) {
  std::uint64_t seed = 520;
  for (const char* family : kAdversarialFamilies) {
    auto bytes = dm::net::write_pcap(
        dm::synth::episode_to_pcap(adversarial_episode(seed, family)));
    dm::util::Rng rng(seed++);
    ASSERT_EQ(dm::faultinject::truncate_final_record(bytes, rng), 1u) << family;
    FaultStats faults;
    const auto result = dm::net::decode_pcap_view(bytes, {}, &faults);
    EXPECT_FALSE(result.fatal) << family;
    EXPECT_TRUE(result.truncated_tail) << family;
    EXPECT_EQ(faults.count(DecodeErrorCode::kPcapTruncatedRecord), 1u)
        << family;
    EXPECT_EQ(faults.total(), 1u) << family;
  }
}

TEST(AdversarialFaultTest, RandomCorruptionNeverCrashesAndAccountsEveryError) {
  std::uint64_t seed = 540;
  for (const char* family : kAdversarialFamilies) {
    auto bytes = dm::net::write_pcap(
        dm::synth::episode_to_pcap(adversarial_episode(seed, family)));
    dm::util::Rng rng(seed++);
    dm::faultinject::corrupt_random_bytes(bytes, 60, rng);
    FaultStats faults;
    const auto result = dm::net::decode_pcap_view(bytes, {}, &faults);
    EXPECT_EQ(faults.total(), result.errors.size()) << family;
    // Whatever survived decode must flow through reassembly + HTTP without
    // crashing.
    FaultStats http_faults;
    (void)dm::http::transactions_from_pcap(result.file, &http_faults);
  }
}

TEST(AdversarialFaultTest, DuplicateSegmentsLeaveDomainRotateAlertsIdentical) {
  const auto clean =
      dm::synth::episode_to_pcap(adversarial_episode(560, "DomainRotate"));
  auto mutated = clean;
  dm::util::Rng rng(9);
  ASSERT_EQ(dm::faultinject::duplicate_segments(mutated, 8, rng), 8u);

  auto alerts_of = [](const dm::net::PcapFile& capture) {
    dm::core::OnlineDetector detector(shared_detector(), online_options());
    for (auto& txn : dm::http::transactions_from_pcap(capture)) {
      detector.observe(std::move(txn));
    }
    return detector.alerts();
  };
  const auto reference = sorted_keys(alerts_of(clean));
  ASSERT_FALSE(reference.empty()) << "clean capture raised no alert; fence vacuous";
  EXPECT_EQ(sorted_keys(alerts_of(mutated)), reference);
}

}  // namespace
}  // namespace dm
