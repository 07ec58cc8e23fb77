// TCP stream reassembly: turns a timestamped sequence of parsed TCP/IPv4
// packets into per-flow, per-direction ordered byte streams.  Handles
// out-of-order arrival, retransmission (duplicate/overlapping segments are
// trimmed), and sequence-number wraparound.  Each delivered byte range keeps
// its arrival timestamp so the HTTP layer can time individual transactions —
// the WCG's temporal features (f36, f37) depend on this.
//
// Adversarial input cannot grow state without bound: per-direction caps
// bound the out-of-order hold buffer (a hostile stream of gapped segments
// would otherwise buffer forever) and the reassembled stream itself.
// Segments dropped at a cap are quarantined — counted in the reassembler's
// ReassemblyCounters and, when given, a util::FaultStats — and the flow
// keeps going with what it has.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/packet.h"
#include "util/fault_stats.h"

namespace dm::net {

/// Canonical 4-tuple key.  The lower (ip, port) pair is stored first so both
/// directions of a connection map to the same key.
struct FlowKey {
  Ipv4Address ip_a;
  std::uint16_t port_a = 0;
  Ipv4Address ip_b;
  std::uint16_t port_b = 0;

  static FlowKey canonical(Ipv4Address src_ip, std::uint16_t src_port,
                           Ipv4Address dst_ip, std::uint16_t dst_port) noexcept;

  friend bool operator==(const FlowKey&, const FlowKey&) = default;
};

struct FlowKeyHash {
  std::size_t operator()(const FlowKey& k) const noexcept;
};

/// A contiguous run of delivered bytes with its arrival time.
struct StreamChunk {
  std::size_t offset = 0;  // into DirectionStream::data
  std::size_t length = 0;
  std::uint64_t ts_micros = 0;
};

/// In-order reassembled bytes for one direction of a flow.
struct DirectionStream {
  std::string data;
  std::vector<StreamChunk> chunks;

  /// Timestamp of the chunk containing byte `offset`; 0 if out of range.
  /// O(log chunks): relies on chunks being contiguous and in offset order,
  /// as the reassembler appends them.
  std::uint64_t timestamp_at(std::size_t offset) const noexcept;
};

/// One reassembled TCP connection.
struct TcpFlow {
  Ipv4Address client_ip;   // initiator: see first_sender_is_client
  std::uint16_t client_port = 0;
  Ipv4Address server_ip;
  std::uint16_t server_port = 0;
  DirectionStream client_to_server;
  DirectionStream server_to_client;
  std::uint64_t first_ts_micros = 0;
  std::uint64_t last_ts_micros = 0;
  bool saw_syn = false;
  bool closed = false;  // FIN or RST observed from either side
};

/// Names a flow's client from the flow's first captured packet.  A SYN's
/// sender is the client, and a SYN-ACK's receiver, who sent the SYN the
/// capture began after.  Any other packet may come from either end of a
/// connection captured mid-stream, so the end with the lower port is the
/// server; with equal ports the sender stays the client.  TcpReassembler
/// and the run count of http::transactions_from_pcap share this rule, so
/// that count's reservation stays exact.
inline bool first_sender_is_client(const ParsedPacket& first) noexcept {
  if (first.flags.syn) return !first.flags.ack;
  return first.src_port >= first.dst_port;
}

/// Robustness limits for adversarial streams.  The defaults are far above
/// anything well-formed traffic produces; hitting one is a quarantine event.
struct ReassemblyOptions {
  /// Max out-of-order segments held per direction while waiting for a gap
  /// to fill; further gapped segments are dropped (oldest-gap data wins).
  std::size_t max_pending_segments = 4096;
  /// Max bytes held across a direction's pending segments.
  std::size_t max_pending_bytes = 8 * 1024 * 1024;
  /// Max reassembled bytes per direction; deliveries beyond it are dropped.
  std::size_t max_stream_bytes = 256 * 1024 * 1024;
};

/// Per-reassembler tallies of tolerated anomalies and quarantined drops.
struct ReassemblyCounters {
  std::uint64_t duplicate_segments = 0;   // fully-covered retransmissions
  std::uint64_t overlapping_segments = 0; // partial overlap, prefix trimmed
  std::uint64_t pending_dropped = 0;      // segments shed at a pending cap
  std::uint64_t stream_capped = 0;        // deliveries shed at the byte cap
};

/// Streaming reassembler.  Feed packets in capture order via `ingest`; read
/// out completed state via `flows()` at any point.
class TcpReassembler {
 public:
  TcpReassembler() = default;
  explicit TcpReassembler(ReassemblyOptions options,
                          dm::util::FaultStats* faults = nullptr)
      : options_(options), faults_(faults) {}

  void ingest(const ParsedPacket& pkt, std::uint64_t ts_micros);

  const ReassemblyCounters& counters() const noexcept { return counters_; }

  /// All flows seen so far, in order of first packet.
  std::vector<const TcpFlow*> flows() const;

  std::size_t flow_count() const noexcept { return flow_order_.size(); }

 private:
  struct DirectionState {
    bool initialized = false;
    std::uint32_t next_seq = 0;  // next expected sequence number
    // Out-of-order segments keyed by absolute sequence number.
    std::map<std::uint32_t, std::pair<std::string, std::uint64_t>> pending;
    std::size_t pending_bytes = 0;
  };

  struct FlowState {
    TcpFlow flow;
    DirectionState client_dir;  // client -> server
    DirectionState server_dir;  // server -> client
  };

  static bool seq_before(std::uint32_t a, std::uint32_t b) noexcept {
    return static_cast<std::int32_t>(a - b) < 0;
  }

  void deliver(DirectionState& dir, DirectionStream& stream,
               std::uint32_t seq, std::string_view payload, std::uint64_t ts);
  void flush_pending(DirectionState& dir, DirectionStream& stream);

  void quarantine(dm::util::DecodeErrorCode code, std::size_t amount);

  std::unordered_map<FlowKey, FlowState, FlowKeyHash> flows_;
  std::vector<FlowKey> flow_order_;
  ReassemblyOptions options_;
  ReassemblyCounters counters_;
  dm::util::FaultStats* faults_ = nullptr;
};

}  // namespace dm::net
