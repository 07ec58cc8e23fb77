// Differential fence for flow-at-a-time reconstruction (DESIGN.md §15):
// http::transactions_from_pcap reassembles and parses one flow at a time and
// frees each flow before the next.  Its oracle is the whole-capture
// algorithm it replaced, kept here and only here: one TcpReassembler over
// every packet, then flows(), transactions_from_flow and a request-time
// stable sort.  Both overloads (owning PcapFile and zero-copy PcapFileView)
// must give the oracle's ordered transactions, every field compared, and
// its fault counts.  Inputs cover what could tell the two apart: flow
// order on request-time ties, a 4-tuple reused after FIN, undecodable
// frames, and the seeded fault mutators.
// Runs in the `fault` ctest label (re-run under both sanitizers).
#include "http/transaction_stream.h"

#include <gtest/gtest.h>
#include <gtest/gtest-spi.h>

#include <algorithm>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "fault_inject.h"
#include "http/parser.h"
#include "net/packet.h"
#include "net/pcap.h"
#include "net/tcp_reassembly.h"
#include "synth/families.h"
#include "synth/generator.h"
#include "synth/pcap_export.h"
#include "util/fault_stats.h"
#include "util/rng.h"

namespace {

using dm::http::HttpTransaction;
using dm::net::PcapFile;

/// The pre-flow-at-a-time reconstruction: every flow of the capture held in
/// one reassembler until the last packet is in.
std::vector<HttpTransaction> whole_capture_oracle(const PcapFile& capture,
                                                  dm::util::FaultStats* faults) {
  dm::net::TcpReassembler reassembler{dm::net::ReassemblyOptions{}, faults};
  for (const auto& pkt : capture.packets) {
    if (const auto parsed = dm::net::parse_ethernet_ipv4_tcp(pkt.data)) {
      reassembler.ingest(*parsed, pkt.ts_micros);
    } else if (faults) {
      faults->record(dm::util::DecodeErrorCode::kFrameUndecodable);
    }
  }
  std::vector<HttpTransaction> all;
  for (const dm::net::TcpFlow* flow : reassembler.flows()) {
    auto txns = dm::http::transactions_from_flow(*flow, faults);
    all.insert(all.end(), std::make_move_iterator(txns.begin()),
               std::make_move_iterator(txns.end()));
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const HttpTransaction& a, const HttpTransaction& b) {
                     return a.request.ts_micros < b.request.ts_micros;
                   });
  return all;
}

dm::net::PcapFileView view_of(const PcapFile& capture) {
  dm::net::PcapFileView view;
  view.link_type = capture.link_type;
  for (const auto& pkt : capture.packets) {
    view.packets.push_back({pkt.ts_micros, pkt.data});
  }
  return view;
}

std::vector<std::pair<std::string, std::string>> fields_of(
    const dm::http::Headers& headers) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& h : headers.all()) out.emplace_back(h.name, h.value);
  return out;
}

/// Every field of a transaction, bodies and headers included.
auto fields_of(const HttpTransaction& t) {
  const dm::http::HttpResponse none;
  const auto& r = t.response ? *t.response : none;
  return std::tuple(t.client_host, t.server_host, t.server_ip, t.server_port,
                    t.request.method, t.request.uri, t.request.version,
                    fields_of(t.request.headers), t.request.body,
                    t.request.ts_micros, t.response.has_value(), r.status_code,
                    r.reason, r.version, fields_of(r.headers), r.body,
                    r.ts_micros);
}

/// The fence's one comparison: a single failure naming the first position
/// where the streams differ (bodies are too long to print whole).
void expect_same_stream(const std::vector<HttpTransaction>& got,
                        const std::vector<HttpTransaction>& want,
                        const std::string& what) {
  std::optional<std::size_t> first_difference;
  const std::size_t common = std::min(got.size(), want.size());
  for (std::size_t i = 0; i < common && !first_difference; ++i) {
    if (fields_of(got[i]) != fields_of(want[i])) first_difference = i;
  }
  if (!first_difference && got.size() != want.size()) first_difference = common;
  EXPECT_FALSE(first_difference.has_value())
      << what << ": stream differs from the whole-capture oracle at transaction "
      << first_difference.value_or(0) << " of " << want.size() << " (got "
      << got.size() << ")";
}

/// Both overloads against the oracle, with fault counts.  Returns the
/// oracle's transaction count so callers can refuse a vacuous input.
std::size_t expect_matches_oracle(const PcapFile& capture,
                                  const std::string& what) {
  dm::util::FaultStats oracle_faults;
  dm::util::FaultStats owning_faults;
  dm::util::FaultStats view_faults;
  const auto want = whole_capture_oracle(capture, &oracle_faults);
  expect_same_stream(dm::http::transactions_from_pcap(capture, &owning_faults),
                     want, what + " (PcapFile)");
  expect_same_stream(
      dm::http::transactions_from_pcap(view_of(capture), &view_faults), want,
      what + " (PcapFileView)");
  const auto expected = oracle_faults.snapshot();
  EXPECT_EQ(owning_faults.snapshot().counts, expected.counts)
      << what << " (PcapFile): " << owning_faults.snapshot().summary()
      << " vs oracle " << expected.summary();
  EXPECT_EQ(view_faults.snapshot().counts, expected.counts)
      << what << " (PcapFileView): " << view_faults.snapshot().summary()
      << " vs oracle " << expected.summary();
  return want.size();
}

PcapFile family_capture(std::uint64_t seed, const dm::synth::TraceFamily& family) {
  return dm::synth::episode_to_pcap(dm::synth::episode_for_family(seed, family));
}

/// Shifts every request and response time so the first request is at `start`.
void rebase(dm::synth::Episode& episode, std::uint64_t start) {
  const std::uint64_t base = episode.transactions.front().request.ts_micros;
  for (auto& txn : episode.transactions) {
    txn.request.ts_micros = txn.request.ts_micros - base + start;
    if (txn.response) txn.response->ts_micros = txn.response->ts_micros - base + start;
  }
}

void append(PcapFile& into, PcapFile from) {
  into.packets.insert(into.packets.end(),
                      std::make_move_iterator(from.packets.begin()),
                      std::make_move_iterator(from.packets.end()));
}

void sort_by_time(PcapFile& capture) {
  std::stable_sort(capture.packets.begin(), capture.packets.end(),
                   [](const dm::net::PcapPacket& a, const dm::net::PcapPacket& b) {
                     return a.ts_micros < b.ts_micros;
                   });
}

TEST(FlowAtATimeReconstructionTest, EveryCatalogFamilyMatchesTheOracle) {
  for (const auto& family : dm::synth::trace_family_catalog()) {
    EXPECT_GT(expect_matches_oracle(family_capture(41, family), family.name), 0u)
        << family.name;
  }
}

TEST(FlowAtATimeReconstructionTest, InterleavedClientsWithTiedRequestTimes) {
  // Three catalog episodes rebased to one start, each replayed from four
  // client addresses at the same instants: flows interleave packet by
  // packet, and every request time is shared by at least four flows, so
  // the request-time sort's tie order is the flow order.
  const auto& catalog = dm::synth::trace_family_catalog();
  PcapFile merged;
  for (std::size_t e = 0; e < 3; ++e) {
    auto episode = dm::synth::episode_for_family(50 + e, catalog[e * 6]);
    rebase(episode, 1'600'000'000ULL * 1'000'000);
    for (int c = 0; c < 4; ++c) {
      for (auto& txn : episode.transactions) {
        txn.client_host = "10.77." + std::to_string(e) + "." + std::to_string(c + 1);
      }
      append(merged, dm::synth::episode_to_pcap(episode));
    }
  }
  sort_by_time(merged);
  const auto txns = dm::http::transactions_from_pcap(merged);
  std::size_t ties = 0;
  for (std::size_t i = 1; i < txns.size(); ++i) {
    ties += txns[i].request.ts_micros == txns[i - 1].request.ts_micros &&
            txns[i].client_host != txns[i - 1].client_host;
  }
  ASSERT_GT(ties, 20u) << "the merged capture must tie request times across clients";
  expect_matches_oracle(merged, "interleaved");
}

TEST(FlowAtATimeReconstructionTest, FourTupleReusedAfterFin) {
  // The same episode exported twice, ten minutes apart: every connection of
  // the replay reuses a 4-tuple (same client address, ports from 40200 up,
  // same servers) after the first run's FIN.  Both algorithms key flows on
  // the 4-tuple, so each pair of connections shares one reassembler.  The
  // first run's last response loses its final segment, so its body runs on
  // into the replay's bytes only if the replay joins the same flow.
  const auto flow_count = [](const PcapFile& capture) {
    dm::net::TcpReassembler reassembler;
    for (const auto& pkt : capture.packets) {
      reassembler.ingest(*dm::net::parse_ethernet_ipv4_tcp(pkt.data), pkt.ts_micros);
    }
    return reassembler.flow_count();
  };
  auto episode = dm::synth::episode_for_family(
      61, dm::synth::trace_family_by_name("Angler"));
  PcapFile capture = dm::synth::episode_to_pcap(episode);
  const auto data_frames = dm::faultinject::data_frame_indices(capture);
  const auto last_response = std::find_if(
      data_frames.rbegin(), data_frames.rend(), [&](std::size_t i) {
        return dm::net::parse_ethernet_ipv4_tcp(capture.packets[i].data)->src_port == 80;
      });
  ASSERT_NE(last_response, data_frames.rend());
  capture.packets.erase(capture.packets.begin() +
                        static_cast<std::ptrdiff_t>(*last_response));
  const std::size_t flows = flow_count(capture);
  rebase(episode, capture.packets.back().ts_micros + 600'000'000ULL);
  append(capture, dm::synth::episode_to_pcap(episode));
  ASSERT_EQ(flow_count(capture), flows) << "the replay must reuse every 4-tuple";
  EXPECT_GT(expect_matches_oracle(capture, "reused 4-tuple"), 0u);
}

TEST(FlowAtATimeReconstructionTest, UndecodableFramesAreCountedAlike) {
  auto capture = family_capture(71, dm::synth::trace_family_by_name("Nuclear"));
  dm::util::Rng rng(71);
  ASSERT_EQ(dm::faultinject::garble_ethertype(capture, 3, rng), 3u);
  // A runt, a non-IPv4 frame and an empty record, spread through the capture.
  std::vector<dm::net::PcapPacket> junk(3);
  junk[0].data = {0x01, 0x02, 0x03};
  junk[1].data.assign(60, 0x00);
  junk[1].data[12] = 0x08;
  junk[1].data[13] = 0x06;  // ARP
  for (std::size_t i = 0; i < junk.size(); ++i) {
    const std::size_t at = (i + 1) * capture.packets.size() / 4;
    junk[i].ts_micros = capture.packets[at].ts_micros;
    capture.packets.insert(capture.packets.begin() + static_cast<std::ptrdiff_t>(at),
                           junk[i]);
  }
  dm::util::FaultStats faults;
  (void)dm::http::transactions_from_pcap(capture, &faults);
  EXPECT_EQ(faults.snapshot().count(dm::util::DecodeErrorCode::kFrameUndecodable), 6u);
  expect_matches_oracle(capture, "undecodable frames");
}

TEST(FlowAtATimeReconstructionTest, FaultMutatorsOverSeeds) {
  const auto& catalog = dm::synth::trace_family_catalog();
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const auto& family = catalog[seed % catalog.size()];
    const std::string what = family.name + " seed " + std::to_string(seed);
    dm::util::Rng rng(seed);
    auto capture = family_capture(100 + seed, family);
    switch (seed % 4) {
      case 0:
        dm::faultinject::duplicate_segments(capture, 6, rng);
        dm::faultinject::overlap_segments(capture, 3, rng);
        break;
      case 1:
        dm::faultinject::reorder_records(capture, rng);
        break;
      case 2:
        dm::faultinject::garble_ethertype(capture, 2, rng);
        dm::faultinject::drop_tail(capture, 0.2);
        break;
      case 3: {
        // Byte-level damage inside record payloads, decoded back.
        auto bytes = dm::net::write_pcap(capture);
        dm::faultinject::corrupt_payload_bytes(bytes, 40, rng);
        capture = dm::net::decode_pcap(bytes).file;
        break;
      }
    }
    expect_matches_oracle(capture, what);
  }
}

TEST(FlowAtATimeReconstructionTest, FenceFailsWhenTheOracleMissesAPayloadPacket) {
  // The oracle is fed the capture minus one payload packet: the fence's
  // comparison must object.
  const auto capture = family_capture(81, dm::synth::trace_family_by_name("Angler"));
  const auto data_frames = dm::faultinject::data_frame_indices(capture);
  ASSERT_FALSE(data_frames.empty());
  auto tampered = capture;
  tampered.packets.erase(tampered.packets.begin() +
                         static_cast<std::ptrdiff_t>(data_frames.front()));
  const auto want = whole_capture_oracle(tampered, nullptr);
  const auto got = dm::http::transactions_from_pcap(capture);
  EXPECT_NONFATAL_FAILURE(expect_same_stream(got, want, "tampered"),
                          "tampered: stream differs from the whole-capture oracle");
}

}  // namespace
