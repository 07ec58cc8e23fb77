#include "http/transaction_stream.h"

#include <algorithm>
#include <optional>
#include <unordered_map>

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
/// flow that fed it.  A nested install (the pcap-file wrappers install one
/// around transactions_from_pcap's own) chains parents instead of stacking.
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

/// Shared reconstruction over any capture whose packets expose ts_micros +
/// data (owned PcapFile or zero-copy PcapFileView).  One implementation
/// keeps the copying and mmap pipelines semantically identical — the
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
  auto reassembly_span = timer.span(obs.stage_tcp_reassembly_ns);
  dm::obs::ScopedTraceSpan reassembly_tspan(dm::obs::TraceOp::kTcpReassembly,
                                            capture.packets.size());
  std::vector<std::vector<std::size_t>> flow_packets;  // first-packet order
  std::unordered_map<dm::net::FlowKey, std::size_t, dm::net::FlowKeyHash>
      flow_index;
  for (std::size_t i = 0; i < capture.packets.size(); ++i) {
    const auto pkt = dm::net::parse_ethernet_ipv4_tcp(capture.packets[i].data);
    if (!pkt) {
      if (faults) faults->record(dm::util::DecodeErrorCode::kFrameUndecodable);
      continue;
    }
    const auto [it, inserted] = flow_index.try_emplace(
        dm::net::FlowKey::canonical(pkt->src_ip, pkt->src_port, pkt->dst_ip,
                                    pkt->dst_port),
        flow_packets.size());
    if (inserted) flow_packets.emplace_back();
    flow_packets[it->second].push_back(i);
  }
  reassembly_tspan.end();
  reassembly_span.stop();
  obs.net_packets.add(capture.packets.size());

  // Pass 2, per flow: reassemble, parse, and drop the flow's bytes with its
  // reassembler.  Headers are parsed again rather than kept from pass 1:
  // a kept ParsedPacket pins 48 bytes per packet for the whole pass, and
  // these frames already parsed once, so the dereference cannot fail.
  std::vector<HttpTransaction> all;
  for (const auto& packets : flow_packets) {
    auto parse_span = timer.span(obs.stage_http_parse_ns);
    dm::obs::ScopedTraceSpan parse_tspan(dm::obs::TraceOp::kHttpParse);
    dm::net::TcpReassembler reassembler{dm::net::ReassemblyOptions{}, faults};
    for (const std::size_t i : packets) {
      const auto& pkt = capture.packets[i];
      reassembler.ingest(*dm::net::parse_ethernet_ipv4_tcp(pkt.data),
                         pkt.ts_micros);
    }
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
  std::stable_sort(all.begin(), all.end(),
                   [](const HttpTransaction& a, const HttpTransaction& b) {
                     return a.request.ts_micros < b.request.ts_micros;
                   });
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

std::vector<HttpTransaction> transactions_from_pcap_file(const std::string& path) {
  auto tctx = decode_trace_context();
  dm::obs::TraceContextGuard tguard(tctx ? &*tctx : nullptr);
  auto span = dm::obs::StageTimer{}.span(
      dm::obs::pipeline_metrics().stage_pcap_decode_ns);
  dm::obs::ScopedTraceSpan tspan(dm::obs::TraceOp::kPcapDecode);
  auto capture = dm::net::read_pcap_file(path);
  tspan.set_arg(capture.packets.size());
  tspan.end();
  span.stop();
  return transactions_from_pcap(capture);
}

std::vector<HttpTransaction> transactions_from_pcap_file(
    const std::string& path, dm::util::FaultStats* faults) {
  auto tctx = decode_trace_context();
  dm::obs::TraceContextGuard tguard(tctx ? &*tctx : nullptr);
  auto span = dm::obs::StageTimer{}.span(
      dm::obs::pipeline_metrics().stage_pcap_decode_ns);
  dm::obs::ScopedTraceSpan tspan(dm::obs::TraceOp::kPcapDecode);
  const auto decoded = dm::net::decode_pcap_file(path, {}, faults);
  tspan.set_arg(decoded.file.packets.size());
  tspan.end();
  span.stop();
  return transactions_from_pcap(decoded.file, faults);
}

std::vector<HttpTransaction> transactions_from_pcap_file_mmap(
    const std::string& path, dm::util::FaultStats* faults) {
  auto tctx = decode_trace_context();
  dm::obs::TraceContextGuard tguard(tctx ? &*tctx : nullptr);
  auto span = dm::obs::StageTimer{}.span(
      dm::obs::pipeline_metrics().stage_pcap_decode_ns);
  dm::obs::ScopedTraceSpan tspan(dm::obs::TraceOp::kPcapDecode);
  // Map + decode views in place: packet bytes stay in the page cache, the
  // decode stage only materializes 16-byte views per record.
  dm::net::MappedPcap capture(path, {}, faults);
  tspan.set_arg(capture.file().packets.size());
  tspan.end();
  span.stop();
  // Reconstruction copies flow payloads into owned transactions, so the
  // mapping (local to this frame) can be dropped at return — no slice
  // escapes it.
  return transactions_from_pcap(capture.file(), faults);
}

}  // namespace dm::http
