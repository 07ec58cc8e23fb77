#include "http/transaction_stream.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "http/parser.h"
#include "net/packet.h"
#include "net/pcap_mmap.h"
#include "net/tcp_reassembly.h"
#include "obs/pipeline.h"
#include "obs/timer.h"
#include "obs/trace.h"
#include "util/hash.h"

namespace dm::http {
namespace {

/// Decode runs before sessionization, so its trace events are process-scope
/// (session 0); per-flow parse spans carry fnv1a(client) in `arg` instead,
/// which is how the trace-reconstruction fence links an alert back to the
/// flow that fed it.  A nested install (the file reader installs one around
/// transactions_from_pcap's own) chains parents instead of stacking.
std::optional<dm::obs::TraceContext> decode_trace_context() {
  auto& sink = dm::obs::trace_sink();
  if (!sink.enabled()) return std::nullopt;
  dm::obs::TraceContext ctx;
  ctx.sink = &sink;
  if (const auto* outer = dm::obs::current_trace_context()) {
    ctx.parent = outer->parent;
  }
  return ctx;
}

/// One flow's packets as pass 1 groups them.
struct FlowPackets {
  // TcpReassembler's client (net::first_sender_is_client).
  dm::net::Ipv4Address client_ip;
  std::uint16_t client_port = 0;
  bool client_sent_last = false;  // the flow's last data segment was the client's
  std::vector<std::size_t> packets;
};

/// Puts `txns` in request-time order, ties in their current order: the
/// order std::stable_sort gives, because no two (time, position) keys are
/// equal.  The keys are sorted, and the transactions are then moved into
/// place by following the permutation's cycles, one transaction held aside
/// per cycle, instead of through stable_sort's scratch buffer of half the
/// stream.
void order_by_request_time(std::vector<HttpTransaction>& txns) {
  std::vector<std::pair<std::uint64_t, std::size_t>> keys(txns.size());
  for (std::size_t i = 0; i < txns.size(); ++i) {
    keys[i] = {txns[i].request.ts_micros, i};
  }
  std::sort(keys.begin(), keys.end());
  // Position i takes the transaction at keys[i].second; a position whose
  // key names itself is in place.
  for (std::size_t start = 0; start < keys.size(); ++start) {
    if (keys[start].second == start) continue;
    HttpTransaction held = std::move(txns[start]);
    std::size_t at = start;
    while (keys[at].second != start) {
      const std::size_t from = keys[at].second;
      txns[at] = std::move(txns[from]);
      keys[at].second = at;
      at = from;
    }
    txns[at] = std::move(held);
    keys[at].second = at;
  }
}

/// Shared reconstruction over any capture whose packets expose ts_micros +
/// data (owned PcapFile or zero-copy PcapFileView).  One implementation
/// keeps the in-memory and file paths semantically identical — the
/// differential fence in net_pcap_mmap_test leans on that.
///
/// Flow at a time, so a flow's reassembled bytes are freed before the next
/// flow's are built: the peak is the transaction stream plus one flow, not
/// plus every flow.  The result is the whole-capture reassembler's: its
/// per-flow state never mixes flows, each flow still sees its packets in
/// capture order, and flows are visited in first-packet order (the order
/// TcpReassembler::flows() reports), so the stream, its ties under the
/// request-time sort and every fault count are unchanged.
template <typename Capture>
std::vector<HttpTransaction> reconstruct_transactions(
    const Capture& capture, dm::util::FaultStats* faults) {
  auto& obs = dm::obs::pipeline_metrics();
  const dm::obs::StageTimer timer;
  auto tctx = decode_trace_context();
  dm::obs::TraceContextGuard tguard(tctx ? &*tctx : nullptr);

  // Pass 1: frame-parse each packet and group packet indices by flow.  No
  // payload byte is copied.  Timed per capture (a per-packet span would
  // cost two clock reads per packet — more than the work it measures).
  //
  // It also counts runs of client data segments: a run starts at a client
  // data segment that opens its flow's data or follows a server data
  // segment.  Unpipelined, each request is one run however many segments it
  // spans.  Pipelined requests that share a run make the count fall short.
  auto reassembly_span = timer.span(obs.stage_tcp_reassembly_ns);
  dm::obs::ScopedTraceSpan reassembly_tspan(dm::obs::TraceOp::kTcpReassembly,
                                            capture.packets.size());
  std::vector<FlowPackets> flows;  // first-packet order
  std::unordered_map<dm::net::FlowKey, std::size_t, dm::net::FlowKeyHash>
      flow_index;
  std::size_t client_runs = 0;
  for (std::size_t i = 0; i < capture.packets.size(); ++i) {
    const auto pkt = dm::net::parse_ethernet_ipv4_tcp(capture.packets[i].data);
    if (!pkt) {
      if (faults) faults->record(dm::util::DecodeErrorCode::kFrameUndecodable);
      continue;
    }
    const auto [it, inserted] = flow_index.try_emplace(
        dm::net::FlowKey::canonical(pkt->src_ip, pkt->src_port, pkt->dst_ip,
                                    pkt->dst_port),
        flows.size());
    if (inserted) {
      const bool sender_is_client = dm::net::first_sender_is_client(*pkt);
      flows.push_back(
          {sender_is_client ? pkt->src_ip : pkt->dst_ip,
           sender_is_client ? pkt->src_port : pkt->dst_port, false, {}});
    }
    FlowPackets& flow = flows[it->second];
    flow.packets.push_back(i);
    if (!pkt->payload.empty()) {
      const bool from_client =
          pkt->src_ip == flow.client_ip && pkt->src_port == flow.client_port;
      client_runs += from_client && !flow.client_sent_last;
      flow.client_sent_last = from_client;
    }
  }
  reassembly_tspan.end();
  reassembly_span.stop();
  obs.net_packets.add(capture.packets.size());

  // Pass 2, per flow: reassemble, parse, and drop the flow's bytes with its
  // reassembler and its packet list.  Headers are parsed again rather than
  // kept from pass 1: a kept ParsedPacket pins 48 bytes per packet for the
  // whole pass, and these frames already parsed once, so the dereference
  // cannot fail.
  //
  // The output is reserved once, one slot per run, and grows as any vector
  // does only when pipelining made the count fall short.  One reservation
  // matters beyond its slack: each regrowth frees a multi-MB mmapped block,
  // glibc then raises its mmap threshold to that block's size, and the
  // reassembly buffers of later flows come from the main heap and leave it
  // holed when they are freed.
  std::vector<HttpTransaction> all;
  all.reserve(client_runs);
  for (FlowPackets& flow : flows) {
    auto parse_span = timer.span(obs.stage_http_parse_ns);
    dm::obs::ScopedTraceSpan parse_tspan(dm::obs::TraceOp::kHttpParse);
    dm::net::TcpReassembler reassembler{dm::net::ReassemblyOptions{}, faults};
    for (const std::size_t i : flow.packets) {
      const auto& pkt = capture.packets[i];
      reassembler.ingest(*dm::net::parse_ethernet_ipv4_tcp(pkt.data),
                         pkt.ts_micros);
    }
    flow.packets = std::vector<std::size_t>();
    auto txns = transactions_from_flow(*reassembler.flows().front(), faults);
    if (!txns.empty()) {
      // Client tag: the end event names whose conversation this flow was.
      parse_tspan.set_arg(dm::util::fnv1a(txns.front().client_host));
    }
    parse_tspan.end();
    parse_span.stop();
    all.insert(all.end(), std::make_move_iterator(txns.begin()),
               std::make_move_iterator(txns.end()));
  }
  obs.http_transactions.add(all.size());
  order_by_request_time(all);
  return all;
}

}  // namespace

std::vector<HttpTransaction> transactions_from_pcap(
    const dm::net::PcapFile& capture, dm::util::FaultStats* faults) {
  return reconstruct_transactions(capture, faults);
}

std::vector<HttpTransaction> transactions_from_pcap(
    const dm::net::PcapFileView& capture, dm::util::FaultStats* faults) {
  return reconstruct_transactions(capture, faults);
}

std::vector<HttpTransaction> transactions_from_pcap_file(
    const std::string& path, dm::util::FaultStats* faults) {
  auto tctx = decode_trace_context();
  dm::obs::TraceContextGuard tguard(tctx ? &*tctx : nullptr);
  auto span = dm::obs::StageTimer{}.span(
      dm::obs::pipeline_metrics().stage_pcap_decode_ns);
  dm::obs::ScopedTraceSpan tspan(dm::obs::TraceOp::kPcapDecode);
  // Map + decode views in place: packet bytes stay in the page cache, the
  // decode stage only materializes 16-byte views per record.
  const dm::net::MappedPcap capture(path, {}, faults);
  tspan.set_arg(capture.file().packets.size());
  tspan.end();
  span.stop();
  if (capture.result().fatal && faults == nullptr) {
    throw std::runtime_error("pcap: " +
                             capture.result().errors.front().to_string());
  }
  // Reconstruction copies flow payloads into owned transactions, so the
  // mapping (local to this frame) can be dropped at return — no slice
  // escapes it.
  return transactions_from_pcap(capture.file(), faults);
}

}  // namespace dm::http
