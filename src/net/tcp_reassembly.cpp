#include "net/tcp_reassembly.h"

#include <algorithm>
#include <utility>

#include "util/hash.h"
#include "util/rate_limit.h"

namespace dm::net {

FlowKey FlowKey::canonical(Ipv4Address src_ip, std::uint16_t src_port,
                           Ipv4Address dst_ip, std::uint16_t dst_port) noexcept {
  const bool src_first =
      src_ip.value < dst_ip.value ||
      (src_ip.value == dst_ip.value && src_port <= dst_port);
  if (src_first) return {src_ip, src_port, dst_ip, dst_port};
  return {dst_ip, dst_port, src_ip, src_port};
}

std::size_t FlowKeyHash::operator()(const FlowKey& k) const noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  mix(k.ip_a.value);
  mix(k.port_a);
  mix(k.ip_b.value);
  mix(k.port_b);
  return static_cast<std::size_t>(h);
}

std::uint64_t DirectionStream::timestamp_at(std::size_t offset) const noexcept {
  // deliver() and flush_pending() append chunks at strictly ascending,
  // contiguous offsets, so the chunk holding `offset` is the last one
  // starting at or before it.
  const auto after = std::upper_bound(
      chunks.begin(), chunks.end(), offset,
      [](std::size_t at, const StreamChunk& chunk) { return at < chunk.offset; });
  if (after == chunks.begin()) return 0;
  const StreamChunk& chunk = *(after - 1);
  return offset < chunk.offset + chunk.length ? chunk.ts_micros : 0;
}

void TcpReassembler::ingest(const ParsedPacket& pkt, std::uint64_t ts_micros) {
  const FlowKey key =
      FlowKey::canonical(pkt.src_ip, pkt.src_port, pkt.dst_ip, pkt.dst_port);

  auto it = flows_.find(key);
  if (it == flows_.end()) {
    FlowState state;
    state.flow.client_ip = pkt.src_ip;
    state.flow.client_port = pkt.src_port;
    state.flow.server_ip = pkt.dst_ip;
    state.flow.server_port = pkt.dst_port;
    if (!first_sender_is_client(pkt)) {
      std::swap(state.flow.client_ip, state.flow.server_ip);
      std::swap(state.flow.client_port, state.flow.server_port);
    }
    state.flow.first_ts_micros = ts_micros;
    it = flows_.emplace(key, std::move(state)).first;
    flow_order_.push_back(key);
  }
  FlowState& state = it->second;
  TcpFlow& flow = state.flow;
  flow.last_ts_micros = ts_micros;

  const bool from_client =
      pkt.src_ip == flow.client_ip && pkt.src_port == flow.client_port;
  DirectionState& dir = from_client ? state.client_dir : state.server_dir;
  DirectionStream& stream =
      from_client ? flow.client_to_server : flow.server_to_client;

  if (pkt.flags.syn) {
    flow.saw_syn = true;
    dir.initialized = true;
    dir.next_seq = pkt.seq + 1;  // SYN consumes one sequence number
    return;
  }
  if (pkt.flags.rst) {
    flow.closed = true;
    return;
  }
  if (!dir.initialized) {
    // Mid-stream capture: adopt this packet's sequence as the start.
    dir.initialized = true;
    dir.next_seq = pkt.seq;
  }

  if (!pkt.payload.empty()) {
    deliver(dir, stream, pkt.seq,
            std::string_view(reinterpret_cast<const char*>(pkt.payload.data()),
                             pkt.payload.size()),
            ts_micros);
  }
  if (pkt.flags.fin) {
    flow.closed = true;
    dir.next_seq += 1;
  }
}

void TcpReassembler::quarantine(dm::util::DecodeErrorCode code,
                                std::size_t amount) {
  if (faults_) faults_->record(code);
  static dm::util::EveryN gate(256);
  dm::util::log_every_n(gate, dm::util::LogLevel::kWarn,
                        "tcp: quarantined ", amount, " bytes (",
                        dm::util::decode_error_name(code), ")");
}

void TcpReassembler::deliver(DirectionState& dir, DirectionStream& stream,
                             std::uint32_t seq, std::string_view payload,
                             std::uint64_t ts) {
  // Trim any prefix we already have (retransmission / overlap).
  if (seq_before(seq, dir.next_seq)) {
    const std::uint32_t overlap = dir.next_seq - seq;
    if (overlap >= payload.size()) {
      ++counters_.duplicate_segments;
      return;  // pure duplicate
    }
    ++counters_.overlapping_segments;
    payload.remove_prefix(overlap);
    seq = dir.next_seq;
  }

  if (seq == dir.next_seq) {
    if (stream.data.size() + payload.size() > options_.max_stream_bytes) {
      // Direction hit its byte budget: advance next_seq so the flow's
      // bookkeeping stays consistent, but stop growing the stream.
      ++counters_.stream_capped;
      quarantine(dm::util::DecodeErrorCode::kTcpStreamOverflow, payload.size());
      dir.next_seq += static_cast<std::uint32_t>(payload.size());
      flush_pending(dir, stream);
      return;
    }
    stream.chunks.push_back({stream.data.size(), payload.size(), ts});
    stream.data.append(payload);
    dir.next_seq += static_cast<std::uint32_t>(payload.size());
    flush_pending(dir, stream);
  } else {
    // Out of order: hold until the gap fills — within the per-direction
    // budget.  An adversarial all-gaps stream sheds the newest segment
    // (the buffered ones are closer to next_seq and still fillable).
    if (dir.pending.size() >= options_.max_pending_segments ||
        dir.pending_bytes + payload.size() > options_.max_pending_bytes) {
      ++counters_.pending_dropped;
      quarantine(dm::util::DecodeErrorCode::kTcpPendingOverflow,
                 payload.size());
      return;
    }
    const auto [it, inserted] =
        dir.pending.emplace(seq, std::make_pair(std::string(payload), ts));
    if (inserted) {
      dir.pending_bytes += payload.size();
    } else {
      ++counters_.duplicate_segments;  // same-seq retransmission while gapped
    }
  }
}

void TcpReassembler::flush_pending(DirectionState& dir, DirectionStream& stream) {
  while (!dir.pending.empty()) {
    // Find a buffered segment that starts at or before next_seq.
    bool progressed = false;
    for (auto it = dir.pending.begin(); it != dir.pending.end();) {
      auto& [seq, entry] = *it;
      auto& [data, ts] = entry;
      if (seq_before(dir.next_seq, seq)) {
        ++it;
        continue;  // still a gap before this one
      }
      const std::uint32_t overlap = dir.next_seq - seq;
      if (overlap < data.size()) {
        std::string_view remaining(data);
        remaining.remove_prefix(overlap);
        if (overlap > 0) ++counters_.overlapping_segments;
        if (stream.data.size() + remaining.size() > options_.max_stream_bytes) {
          ++counters_.stream_capped;
          quarantine(dm::util::DecodeErrorCode::kTcpStreamOverflow,
                     remaining.size());
          dir.next_seq += static_cast<std::uint32_t>(remaining.size());
        } else {
          stream.chunks.push_back({stream.data.size(), remaining.size(), ts});
          stream.data.append(remaining);
          dir.next_seq += static_cast<std::uint32_t>(remaining.size());
        }
        progressed = true;
      }
      dir.pending_bytes -= data.size();
      it = dir.pending.erase(it);
      if (progressed) break;  // restart scan: next_seq moved
    }
    if (!progressed) break;
  }
}

std::vector<const TcpFlow*> TcpReassembler::flows() const {
  std::vector<const TcpFlow*> out;
  out.reserve(flow_order_.size());
  for (const FlowKey& key : flow_order_) {
    out.push_back(&flows_.at(key).flow);
  }
  return out;
}

}  // namespace dm::net
