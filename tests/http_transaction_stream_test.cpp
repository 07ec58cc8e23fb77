// Differential fence for flow-at-a-time reconstruction (DESIGN.md §15):
// http::transactions_from_pcap reassembles and parses one flow at a time and
// frees each flow before the next.  Its oracle is the whole-capture
// algorithm it replaced, kept here and only here: one TcpReassembler over
// every packet, then flows(), transactions_from_flow and a request-time
// stable sort.  Both overloads (owning PcapFile and zero-copy PcapFileView)
// must give the oracle's ordered transactions, every field compared, and
// its fault counts.  Inputs cover what could tell the two apart: flow
// order on request-time ties, a 4-tuple reused after FIN, flows captured
// from the SYN-ACK on, undecodable frames, and the seeded fault mutators.
// Further fences pin the stream's storage: one reservation of the output
// when nothing is pipelined, growth when pipelining makes that reservation
// fall short, and allocator growth close to the stream's own bytes.
// Runs in the `fault` ctest label (re-run under both sanitizers).
#include "http/transaction_stream.h"

#include <gtest/gtest.h>
#include <gtest/gtest-spi.h>

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "fault_inject.h"
#include "http/parser.h"
#include "malloc_probe.h"
#include "net/packet.h"
#include "net/packet_builder.h"
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
  for (const auto& [name, value] : headers) out.emplace_back(name, value);
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
        capture =
            dm::faultinject::owning_copy(dm::net::decode_pcap_view(bytes).file);
        break;
      }
    }
    expect_matches_oracle(capture, what);
  }
}

/// Frames carrying data to a server: the client data segments.
std::size_t client_data_segments(const PcapFile& capture) {
  std::size_t segments = 0;
  for (const std::size_t i : dm::faultinject::data_frame_indices(capture)) {
    segments += dm::net::parse_ethernet_ipv4_tcp(capture.packets[i].data)->dst_port == 80;
  }
  return segments;
}

TEST(FlowAtATimeReconstructionTest, UnpipelinedStreamIsReservedOnce) {
  // Seven transactions over three keep-alive connections, none pipelined.
  // The POST's 5,000-byte body spans four client segments and is still one
  // request.
  const std::uint64_t start = 1'600'000'000ULL * 1'000'000;
  const std::string hosts[] = {"a.example", "a.example", "b.example", "c.example",
                               "b.example", "c.example", "a.example"};
  dm::synth::Episode episode;
  for (std::size_t k = 0; k < std::size(hosts); ++k) {
    HttpTransaction txn;
    txn.client_host = "10.9.0.1";
    txn.server_host = hosts[k];
    txn.request.method = k == 2 ? "POST" : "GET";
    txn.request.uri = "/page" + std::to_string(k);
    txn.request.ts_micros = start + k * 10'000;
    txn.request.headers.add("Host", hosts[k]);
    if (k == 2) txn.request.body.assign(5'000, 'p');
    dm::http::HttpResponse res;
    res.status_code = 200;
    res.ts_micros = txn.request.ts_micros + 2'000;
    res.headers.add("Content-Type", "text/html");
    res.body = "<html>" + std::to_string(k) + "</html>";
    txn.response = std::move(res);
    episode.transactions.push_back(std::move(txn));
  }
  const PcapFile capture = dm::synth::episode_to_pcap(episode);
  ASSERT_EQ(client_data_segments(capture), std::size(hosts) + 3);

  const auto owning = dm::http::transactions_from_pcap(capture);
  const auto view = dm::http::transactions_from_pcap(view_of(capture));
  ASSERT_EQ(owning.size(), std::size(hosts));
  EXPECT_EQ(owning[2].request.body.size(), 5'000u);
  EXPECT_EQ(owning.capacity(), owning.size()) << "PcapFile";
  EXPECT_EQ(view.capacity(), view.size()) << "PcapFileView";
  expect_matches_oracle(capture, "unpipelined");
}

/// Wire bytes of GET /p<k> to pipelined.example.
std::string request(int k) {
  dm::http::HttpRequest req;
  req.method = "GET";
  req.uri = "/p" + std::to_string(k);
  req.headers.add("Host", "pipelined.example");
  return dm::synth::render_request(req);
}

/// Wire bytes of a 200 answer whose body names `k`.
std::string response(int k) {
  dm::http::HttpResponse res;
  res.status_code = 200;
  res.headers.add("Content-Type", "text/html");
  res.body = "<p>" + std::to_string(k) + "</p>";
  return dm::synth::render_response(res);
}

TEST(FlowAtATimeReconstructionTest, PipelinedRequestsOutgrowTheReservation) {
  // Client 1 pipelines three GETs in one segment and gets the three answers
  // in one; client 2 sends three GETs one at a time, its first at the same
  // instant.  Four runs of client data hold six requests, so the output's
  // reservation falls short and the vector must grow; the three pipelined
  // requests and client 2's first tie on request time.
  const std::uint64_t start = 1'600'000'000ULL * 1'000'000;
  const auto server = dm::net::Ipv4Address::from_octets(93, 184, 216, 34);
  PcapFile capture;
  dm::net::TcpConversationBuilder pipelined(
      dm::net::Ipv4Address::from_octets(10, 9, 0, 1), 40200, server, 80);
  pipelined.handshake(start);
  pipelined.client_send(start + 2'000, request(0) + request(1) + request(2));
  pipelined.server_send(start + 3'000, response(0) + response(1) + response(2));
  pipelined.teardown(start + 4'000);
  dm::net::TcpConversationBuilder sequential(
      dm::net::Ipv4Address::from_octets(10, 9, 0, 2), 40200, server, 80);
  sequential.handshake(start);
  for (int k = 0; k < 3; ++k) {
    sequential.client_send(start + 2'000 + k * 1'500, request(3 + k));
    sequential.server_send(start + 2'700 + k * 1'500, response(3 + k));
  }
  sequential.teardown(start + 8'000);
  append(capture, {1, pipelined.take_packets()});
  append(capture, {1, sequential.take_packets()});
  sort_by_time(capture);
  ASSERT_EQ(client_data_segments(capture), 4u);

  const auto txns = dm::http::transactions_from_pcap(capture);
  ASSERT_EQ(txns.size(), 6u);
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(txns[i].request.ts_micros, txns[0].request.ts_micros) << i;
  }
  EXPECT_EQ(expect_matches_oracle(capture, "pipelined"), 6u);
}

TEST(FlowAtATimeReconstructionTest, FlowsOpeningAtTheSynAckMatchTheOracle) {
  // Two connections captured from the server's SYN-ACK on: the client's SYN
  // was missed.  Both the reassembler and pass 1's run count take the
  // SYN-ACK's receiver as the client, so the stream is whole and its
  // reservation exact.  The first connection's last request goes
  // unanswered: a run count that took the SYN-ACK's sender as the client
  // would reserve three slots for the four transactions, and the second
  // connection's transaction would regrow the vector.
  const std::uint64_t start = 1'600'000'000ULL * 1'000'000;
  const auto client = dm::net::Ipv4Address::from_octets(10, 0, 0, 5);
  const auto server = dm::net::Ipv4Address::from_octets(93, 184, 216, 34);
  dm::net::TcpConversationBuilder three(client, 40300, server, 80);
  three.handshake(start);
  for (int k = 0; k < 3; ++k) {
    three.client_send(start + 2'000 + k * 1'500, request(k));
    if (k < 2) three.server_send(start + 2'700 + k * 1'500, response(k));
  }
  three.teardown(start + 8'000);
  dm::net::TcpConversationBuilder one(client, 40301, server, 80);
  one.handshake(start + 10'000);
  one.client_send(start + 12'000, request(3));
  one.server_send(start + 13'000, response(3));
  one.teardown(start + 14'000);
  PcapFile capture;
  for (auto* conversation : {&three, &one}) {
    auto packets = conversation->take_packets();
    packets.erase(packets.begin());  // the client's SYN
    append(capture, {1, std::move(packets)});
  }
  const auto opening = dm::net::parse_ethernet_ipv4_tcp(capture.packets[0].data);
  ASSERT_TRUE(opening->flags.syn && opening->flags.ack);

  dm::util::FaultStats faults;
  const auto txns = dm::http::transactions_from_pcap(capture, &faults);
  ASSERT_EQ(txns.size(), 4u);
  for (const auto& txn : txns) EXPECT_EQ(txn.client_host, "10.0.0.5");
  EXPECT_FALSE(txns[2].response.has_value());
  EXPECT_EQ(txns.capacity(), txns.size());
  EXPECT_EQ(faults.total(), 0u) << faults.snapshot().summary();
  EXPECT_EQ(expect_matches_oracle(capture, "SYN-ACK first"), 4u);
}

TEST(FlowAtATimeReconstructionTest, FlowCapturedFromInsideAResponseKeepsItsClient) {
  // One keep-alive connection: GET /a answered with a 5,000-byte body, then
  // GET /b.  The capture is cut at the second segment of /a's response, so
  // the flow's first packet is server data.  The lower port names the
  // server: GET /b survives, from its real client.  The server's stream
  // opens mid-body, so the rest of that body and /b's status line share one
  // line: one bad status line, and /b keeps its 200 answer.
  const std::uint64_t start = 1'600'000'000ULL * 1'000'000;
  const auto server = dm::net::Ipv4Address::from_octets(93, 184, 216, 34);
  dm::net::TcpConversationBuilder conn(
      dm::net::Ipv4Address::from_octets(10, 0, 0, 5), 40400, server, 80);
  const auto get = [](const std::string& uri) {
    dm::http::HttpRequest req;
    req.method = "GET";
    req.uri = uri;
    req.headers.add("Host", "cut.example");
    return dm::synth::render_request(req);
  };
  dm::http::HttpResponse big;
  big.status_code = 200;
  big.headers.add("Content-Type", "text/html");
  big.body.assign(5'000, 'b');
  conn.handshake(start);
  conn.client_send(start + 2'000, get("/a"));
  conn.server_send(start + 3'000, dm::synth::render_response(big));
  conn.client_send(start + 10'000, get("/b"));
  conn.server_send(start + 11'000, response(1));
  conn.teardown(start + 12'000);
  auto packets = conn.take_packets();
  std::size_t server_data = 0;
  const auto cut = std::find_if(packets.begin(), packets.end(), [&](const auto& pkt) {
    const auto parsed = dm::net::parse_ethernet_ipv4_tcp(pkt.data);
    return parsed->src_port == 80 && !parsed->payload.empty() && ++server_data == 2;
  });
  ASSERT_NE(cut, packets.end());
  const PcapFile capture{1, std::vector<dm::net::PcapPacket>(cut, packets.end())};

  dm::util::FaultStats faults;
  const auto txns = dm::http::transactions_from_pcap(capture, &faults);
  ASSERT_EQ(txns.size(), 1u) << faults.snapshot().summary();
  EXPECT_EQ(txns[0].client_host, "10.0.0.5");
  EXPECT_EQ(txns[0].request.uri, "/b");
  ASSERT_TRUE(txns[0].response.has_value());
  EXPECT_EQ(txns[0].response->status_code, 200);
  EXPECT_EQ(faults.count(dm::util::DecodeErrorCode::kHttpBadStatusLine), 1u);
  EXPECT_EQ(faults.total(), 1u) << faults.snapshot().summary();
  EXPECT_EQ(expect_matches_oracle(capture, "server data first"), 1u);
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


#ifndef DM_GLIBC_MALLOC
TEST(FlowAtATimeReconstructionTest, AllocatorGrowthTracksStreamContent) {
  GTEST_SKIP() << "needs glibc's malloc (a sanitizer replaces it)";
}
#else
/// The bytes a stream holds: each string's size, header names and values
/// included, plus one transaction shell per element.
std::size_t content_bytes(const std::vector<HttpTransaction>& txns) {
  const auto fields = [](const dm::http::Headers& headers) {
    std::size_t n = 0;
    for (const auto& [name, value] : headers) n += name.size() + value.size();
    return n;
  };
  std::size_t total = txns.size() * sizeof(HttpTransaction);
  for (const auto& t : txns) {
    total += t.client_host.size() + t.server_host.size() + t.server_ip.size() +
             t.request.method.size() + t.request.uri.size() +
             t.request.version.size() + fields(t.request.headers) +
             t.request.body.size();
    if (t.response) {
      total += t.response->reason.size() + t.response->version.size() +
               fields(t.response->headers) + t.response->body.size();
    }
  }
  return total;
}

TEST(FlowAtATimeReconstructionTest, AllocatorGrowthTracksStreamContent) {
  // The catalog shape at a tenth of its size: the 18-family round robin,
  // one client address per episode, episodes 200 ms apart so their flows
  // interleave, written out and decoded back as a capture read from disk.
  const auto& catalog = dm::synth::trace_family_catalog();
  PcapFile merged;
  std::size_t generated = 0;
  for (std::size_t i = 0; generated < 5'000; ++i) {
    auto episode = dm::synth::episode_for_family(dm::util::stream_seed(7, i),
                                                 catalog[i % catalog.size()]);
    if (episode.transactions.empty()) continue;
    rebase(episode, 1'500'000'000ULL * 1'000'000 + i * 200'000);
    for (auto& txn : episode.transactions) {
      txn.client_host = "10.8." + std::to_string(i / 250) + "." +
                        std::to_string(i % 250 + 2);
    }
    generated += episode.transactions.size();
    append(merged, dm::synth::episode_to_pcap(episode));
  }
  sort_by_time(merged);
  const auto bytes = dm::net::write_pcap(merged);
  merged = {};
  const auto capture = dm::net::decode_pcap_view(bytes);

  // Warm-up, outside the window: the first reconstruction also builds the
  // process-wide metric registry and other lazily made statics.
  (void)dm::http::transactions_from_pcap(family_capture(41, catalog.front()));
  const std::size_t before = heap_bytes_in_use();
  const auto txns = dm::http::transactions_from_pcap(capture.file);
  const std::size_t after = heap_bytes_in_use();
  ASSERT_GE(txns.size(), 5'000u);
  ASSERT_GT(after, before);
  const double content = static_cast<double>(content_bytes(txns));
  const double growth = static_cast<double>(after - before);
  EXPECT_LE(growth / content, 1.10)
      << "allocator growth " << growth / txns.size() << " B/transaction vs content "
      << content / txns.size() << " B/transaction";
  std::printf("[ catalog, %zu transactions ] allocator growth / content %.3f\n",
              txns.size(), growth / content);
}
#endif

}  // namespace
