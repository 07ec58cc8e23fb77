#include "workload.h"

#include <algorithm>
#include <stdexcept>
#include <string_view>

#include "ml/dataset.h"
#include "net/pcap.h"
#include "synth/families.h"
#include "synth/generator.h"
#include "synth/pcap_export.h"
#include "util/hash.h"
#include "util/rng.h"

namespace pipebench {
namespace {

using dm::synth::Episode;

/// Shape of one workload.
struct Spec {
  std::size_t min_transactions = 0;
  /// Episode starts are rebased this far apart; 0 keeps the generated
  /// timestamps (spread over ~a year).
  std::uint64_t stagger_micros = 0;
  bool edge_mix = false;  // 64 benign per exploit kit, else the catalog
};

Spec spec_of(const std::string& name) {
  if (name == "edge") return {50'000, 50'000, true};
  if (name == "catalog") return {50'000, 200'000, false};
  if (name == "archive") return {20'000, 0, false};
  throw std::invalid_argument("unknown workload: " + name);
}

/// The generator draws clients from ~5.2k 10.0.x.y addresses and every
/// exported episode starts its ports at 40200, so a reused address would
/// merge two episodes' flows.  One address per episode keeps them apart and
/// lets an alert be attributed to its episode.
std::string client_address(std::size_t episode) {
  return "10." + std::to_string(64 + episode / 62'500) + "." +
         std::to_string(episode / 250 % 250) + "." +
         std::to_string(episode % 250 + 2);
}

void shift_episode(Episode& episode, std::uint64_t start_micros) {
  if (episode.transactions.empty()) return;
  const std::uint64_t base = episode.transactions.front().request.ts_micros;
  for (auto& txn : episode.transactions) {
    txn.request.ts_micros = txn.request.ts_micros - base + start_micros;
    if (txn.response) {
      txn.response->ts_micros = txn.response->ts_micros - base + start_micros;
    }
  }
}

}  // namespace

TxnKey key_of(const dm::http::HttpTransaction& txn) {
  return TxnKey{txn.client_host, txn.server_host, txn.request.uri,
                txn.request.ts_micros,
                txn.response ? txn.response->status_code : -1};
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"edge", "catalog", "archive"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  const Spec spec = spec_of(name);
  Workload w;
  w.name = name;
  w.seed = seed;

  const std::uint64_t stream = dm::util::stream_seed(seed, dm::util::fnv1a(name));
  dm::synth::TraceGenerator edge_gen(stream);
  const auto& kits = dm::synth::exploit_kit_families();
  const auto& catalog = dm::synth::trace_family_catalog();
  const std::uint64_t first_start = 1'500'000'000ULL * 1'000'000;

  dm::net::PcapFile merged;
  std::size_t transactions = 0;
  while (transactions < spec.min_transactions) {
    const std::size_t i = w.episodes;
    Episode episode;
    if (spec.edge_mix) {
      episode = (i % 65 == 64) ? edge_gen.infection(kits[(i / 65) % kits.size()])
                               : edge_gen.benign();
    } else {
      episode = dm::synth::episode_for_family(dm::util::stream_seed(stream, i),
                                              catalog[i % catalog.size()]);
    }
    ++w.episodes;
    if (episode.transactions.empty()) continue;
    if (spec.stagger_micros != 0) {
      shift_episode(episode, first_start + i * spec.stagger_micros);
    }
    const std::string client = client_address(i);
    const bool malicious = episode.meta.label == dm::ml::kInfection;
    (malicious ? w.malicious_episodes : w.benign_episodes) += 1;
    w.client_malicious.emplace(client, malicious);
    for (auto& txn : episode.transactions) {
      txn.client_host = client;
      w.generated.push_back(key_of(txn));
    }
    transactions += episode.transactions.size();
    auto pcap = dm::synth::episode_to_pcap(episode);
    merged.link_type = pcap.link_type;
    for (auto& pkt : pcap.packets) merged.packets.push_back(std::move(pkt));
  }
  std::stable_sort(merged.packets.begin(), merged.packets.end(),
                   [](const dm::net::PcapPacket& a, const dm::net::PcapPacket& b) {
                     return a.ts_micros < b.ts_micros;
                   });
  w.packets = merged.packets.size();
  w.capture = dm::net::write_pcap(merged);
  w.digest = dm::util::fnv1a(std::string_view(
      reinterpret_cast<const char*>(w.capture.data()), w.capture.size()));
  std::sort(w.generated.begin(), w.generated.end());
  return w;
}

}  // namespace pipebench
