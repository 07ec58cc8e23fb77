// Seeded capture workloads.  Each one is a single in-memory pcap built from
// synth episodes, one unique client address per episode, plus the
// generated-side facts the checks and the quality metrics need.
#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "http/message.h"

namespace pipebench {

/// The fields on which a decoded transaction must match the generated one.
struct TxnKey {
  std::string client;
  std::string server;
  std::string uri;
  std::uint64_t ts_micros = 0;
  int status = -1;  // -1: no response

  auto operator<=>(const TxnKey&) const = default;
};

TxnKey key_of(const dm::http::HttpTransaction& txn);

struct Workload {
  std::string name;
  std::uint64_t seed = 0;
  std::vector<std::uint8_t> capture;  // pcap bytes, time-ordered packets
  std::size_t packets = 0;
  std::size_t episodes = 0;
  std::size_t malicious_episodes = 0;
  std::size_t benign_episodes = 0;
  /// Every generated transaction, sorted (a multiset).
  std::vector<TxnKey> generated;
  /// Unique client address of each episode -> whether it is malicious.
  std::unordered_map<std::string, bool> client_malicious;
  std::uint64_t digest = 0;  // FNV-1a over the capture bytes
};

/// Workload names in report order: edge, catalog, archive.
const std::vector<std::string>& workload_names();

/// Builds the named workload; the same (name, seed) always yields the same
/// capture bytes.  Throws std::invalid_argument on an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

}  // namespace pipebench
