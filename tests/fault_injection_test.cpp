// Fault-injection harness for the decode pipeline and the concurrent
// runtime (§V-B robustness): deterministic seeded mutators corrupt valid
// captures at every layer — pcap framing, Ethernet frames, TCP segments,
// HTTP messages — and the suite asserts three properties end to end:
//
//  1. zero crashes: no mutation may throw past the decode API or tear down
//     a worker thread;
//  2. exact quarantine accounting: targeted injections are counted 1:1 in
//     util::FaultStats / ReassemblyCounters / runtime StatsSnapshot;
//  3. bounded degradation: structure-preserving mutations (duplicate
//     segments) leave the alert set bit-identical, and small lossy
//     mutations keep at least half of the clean-trace alerts.
//
// Runs in the `fault` ctest label (re-run instrumented via DM_SANITIZE).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <sstream>
#include <thread>

#include "core/online.h"
#include "core/trainer.h"
#include "fault_inject.h"
#include "http/parser.h"
#include "http/transaction_stream.h"
#include "ml/serialization.h"
#include "net/packet_builder.h"
#include "net/pcap.h"
#include "net/tcp_reassembly.h"
#include "runtime/sharded_online.h"
#include "synth/dataset.h"
#include "synth/pcap_export.h"
#include "util/fault_stats.h"

namespace dm {
namespace {

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

std::vector<std::uint8_t> episode_bytes(std::uint64_t seed) {
  dm::synth::TraceGenerator gen(seed);
  return dm::net::write_pcap(dm::synth::episode_to_pcap(gen.benign()));
}

dm::net::PcapFile infection_capture(std::uint64_t seed,
                                    const std::string& family) {
  dm::synth::TraceGenerator gen(seed);
  return dm::synth::episode_to_pcap(
      gen.infection(dm::synth::family_by_name(family)));
}

/// Alerts a fresh sequential detector raises on one reconstructed capture.
std::vector<dm::core::Alert> alerts_of(const dm::net::PcapFile& capture,
                                       FaultStats* faults = nullptr) {
  dm::core::OnlineDetector detector(shared_detector(), online_options());
  for (auto& txn : dm::http::transactions_from_pcap(capture, faults)) {
    detector.observe(std::move(txn));
  }
  return detector.alerts();
}

// ---------------------------------------------------------------------------
// Pcap layer
// ---------------------------------------------------------------------------

TEST(PcapFaultTest, TruncatedFinalRecordSalvagesPrefixAndCountsOnce) {
  auto bytes = episode_bytes(11);
  const auto records = dm::faultinject::pcap_records(bytes);
  ASSERT_GT(records.size(), 2u);
  dm::util::Rng rng(1);
  ASSERT_EQ(dm::faultinject::truncate_final_record(bytes, rng), 1u);

  FaultStats faults;
  const auto result = dm::net::decode_pcap_view(bytes, {}, &faults);
  EXPECT_FALSE(result.fatal);
  EXPECT_TRUE(result.truncated_tail);
  EXPECT_EQ(result.file.packets.size(), records.size() - 1);
  ASSERT_EQ(result.errors.size(), 1u);
  EXPECT_EQ(result.errors[0].code, DecodeErrorCode::kPcapTruncatedRecord);
  EXPECT_EQ(faults.count(DecodeErrorCode::kPcapTruncatedRecord), 1u);
  EXPECT_EQ(faults.total(), 1u);
}

TEST(PcapFaultTest, OversizedRecordLengthQuarantinesOnceAndStops) {
  auto bytes = episode_bytes(12);
  const auto records = dm::faultinject::pcap_records(bytes);
  ASSERT_GT(records.size(), 4u);
  const std::size_t victim = records.size() / 2;
  ASSERT_EQ(dm::faultinject::oversize_record_length(bytes, victim), 1u);

  FaultStats faults;
  const auto result = dm::net::decode_pcap_view(bytes, {}, &faults);
  EXPECT_FALSE(result.fatal);
  // Everything before the broken length prefix is salvaged; nothing after
  // it is addressable.
  EXPECT_EQ(result.file.packets.size(), victim);
  ASSERT_EQ(result.errors.size(), 1u);
  EXPECT_EQ(result.errors[0].code, DecodeErrorCode::kPcapOversizedRecord);
  EXPECT_EQ(faults.count(DecodeErrorCode::kPcapOversizedRecord), 1u);
}

TEST(PcapFaultTest, CutRecordHeaderTailIsOneTruncationFault) {
  auto bytes = episode_bytes(13);
  const auto records = dm::faultinject::pcap_records(bytes);
  dm::util::Rng rng(2);
  ASSERT_EQ(dm::faultinject::cut_record_header(bytes, rng), 1u);

  FaultStats faults;
  const auto result = dm::net::decode_pcap_view(bytes, {}, &faults);
  EXPECT_TRUE(result.truncated_tail);
  EXPECT_EQ(result.file.packets.size(), records.size());  // all salvaged
  ASSERT_EQ(result.errors.size(), 1u);
  EXPECT_EQ(result.errors[0].code, DecodeErrorCode::kPcapTruncatedRecord);
  EXPECT_EQ(faults.total(), 1u);
}

TEST(PcapFaultTest, QuarantinedRecordsRoundTripAsForensicCapture) {
  auto bytes = episode_bytes(14);
  dm::util::Rng rng(3);
  ASSERT_EQ(dm::faultinject::truncate_final_record(bytes, rng), 1u);

  dm::net::PcapDecodeOptions options;
  options.keep_quarantined = true;
  const auto result = dm::net::decode_pcap_view(bytes, options);
  ASSERT_EQ(result.quarantined.size(), 1u);

  // The forensic dump copies the quarantined bytes into a capture of its
  // own that decodes cleanly.
  const auto dump = dm::net::write_pcap(dm::net::quarantine_capture(result));
  const auto redecoded = dm::net::decode_pcap_view(dump);
  EXPECT_TRUE(redecoded.errors.empty());
  ASSERT_EQ(redecoded.file.packets.size(), 1u);
  EXPECT_TRUE(std::ranges::equal(redecoded.file.packets[0].data,
                                 result.quarantined[0].data));
}

TEST(PcapFaultTest, RandomCorruptionAccountsEveryErrorInFaultStats) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    auto bytes = episode_bytes(20 + seed);
    dm::util::Rng rng(seed);
    dm::faultinject::corrupt_random_bytes(bytes, 60, rng);

    FaultStats faults;
    const auto result = dm::net::decode_pcap_view(bytes, {}, &faults);
    // decode_pcap_view never throws; every reported error is counted exactly
    // once, and salvage stays self-consistent.
    EXPECT_EQ(faults.total(), result.errors.size()) << "seed " << seed;
    for (const auto& pkt : result.file.packets) {
      EXPECT_LE(pkt.data.size(), bytes.size());
    }
  }
}

// ---------------------------------------------------------------------------
// Frame layer
// ---------------------------------------------------------------------------

TEST(FrameFaultTest, GarbledEthertypeCountsExactlyPerFrame) {
  dm::synth::TraceGenerator gen(31);
  auto capture = dm::synth::episode_to_pcap(gen.benign());
  dm::util::Rng rng(4);
  const std::size_t injected =
      dm::faultinject::garble_ethertype(capture, 3, rng);
  ASSERT_EQ(injected, 3u);

  FaultStats faults;
  const auto txns = dm::http::transactions_from_pcap(capture, &faults);
  (void)txns;
  EXPECT_EQ(faults.count(DecodeErrorCode::kFrameUndecodable), injected);
}

// ---------------------------------------------------------------------------
// TCP layer
// ---------------------------------------------------------------------------

/// Feeds a capture's decodable frames through one reassembler.
dm::net::ReassemblyCounters reassemble(
    const dm::net::PcapFile& capture, FaultStats* faults = nullptr,
    const dm::net::ReassemblyOptions& options = {}) {
  dm::net::TcpReassembler reassembler{options, faults};
  for (const auto& pkt : capture.packets) {
    if (const auto parsed = dm::net::parse_ethernet_ipv4_tcp(pkt.data)) {
      reassembler.ingest(*parsed, pkt.ts_micros);
    }
  }
  return reassembler.counters();
}

TEST(TcpFaultTest, DuplicateSegmentsCountExactlyAndChangeNothing) {
  dm::synth::TraceGenerator gen(41);
  const auto clean = dm::synth::episode_to_pcap(gen.benign());
  auto mutated = clean;
  dm::util::Rng rng(5);
  const std::size_t injected =
      dm::faultinject::duplicate_segments(mutated, 5, rng);
  ASSERT_EQ(injected, 5u);

  EXPECT_EQ(reassemble(mutated).duplicate_segments,
            reassemble(clean).duplicate_segments + injected);

  // Structure-preserving: the reconstructed transaction stream is identical.
  const auto clean_txns = dm::http::transactions_from_pcap(clean);
  const auto mutated_txns = dm::http::transactions_from_pcap(mutated);
  ASSERT_EQ(mutated_txns.size(), clean_txns.size());
  for (std::size_t i = 0; i < clean_txns.size(); ++i) {
    EXPECT_EQ(mutated_txns[i].request.uri, clean_txns[i].request.uri);
    EXPECT_EQ(mutated_txns[i].request.ts_micros,
              clean_txns[i].request.ts_micros);
  }
}

TEST(TcpFaultTest, OverlappingSegmentsAreCountedAndNeverCrash) {
  dm::synth::TraceGenerator gen(42);
  auto capture = dm::synth::episode_to_pcap(gen.benign());
  dm::util::Rng rng(6);
  const std::size_t injected =
      dm::faultinject::overlap_segments(capture, 3, rng);
  ASSERT_EQ(injected, 3u);

  // Each injected segment overlaps delivered data, so at least `injected`
  // overlap trims happen (its garbage tail can cascade into more).
  EXPECT_GE(reassemble(capture).overlapping_segments, injected);
  // Whatever HTTP makes of the garbage, it must not crash.
  FaultStats faults;
  const auto txns = dm::http::transactions_from_pcap(capture, &faults);
  (void)txns;
}

TEST(TcpFaultTest, PendingCapShedsGappedSegmentsWithExactAccounting) {
  dm::net::ReassemblyOptions options;
  options.max_pending_segments = 4;
  FaultStats faults;
  dm::net::TcpReassembler reassembler{options, &faults};

  const auto client = dm::net::Ipv4Address::from_octets(10, 0, 0, 2);
  const auto server = dm::net::Ipv4Address::from_octets(5, 6, 7, 8);
  dm::net::ParsedPacket syn;
  syn.src_ip = client;
  syn.dst_ip = server;
  syn.src_port = 40000;
  syn.dst_port = 80;
  syn.seq = 100;
  syn.flags = {.syn = true};
  reassembler.ingest(syn, 1);

  // Ten segments gapped past the never-sent byte at seq 101: the first four
  // wait in the pending buffer, the remaining six must be shed.
  const std::string payload = "01234567";
  for (int i = 0; i < 10; ++i) {
    dm::net::ParsedPacket pkt;
    pkt.src_ip = client;
    pkt.dst_ip = server;
    pkt.src_port = 40000;
    pkt.dst_port = 80;
    pkt.seq = 1000 + static_cast<std::uint32_t>(i) * 10;
    pkt.flags = {.ack = true};
    pkt.payload = std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(payload.data()), payload.size());
    reassembler.ingest(pkt, static_cast<std::uint64_t>(2 + i));
  }
  EXPECT_EQ(reassembler.counters().pending_dropped, 6u);
  EXPECT_EQ(faults.count(DecodeErrorCode::kTcpPendingOverflow), 6u);
}

TEST(TcpFaultTest, StreamByteCapStopsAdversarialGrowth) {
  dm::net::ReassemblyOptions options;
  options.max_stream_bytes = 64;
  FaultStats faults;
  dm::net::TcpReassembler reassembler{options, &faults};

  const auto client = dm::net::Ipv4Address::from_octets(10, 0, 0, 3);
  const auto server = dm::net::Ipv4Address::from_octets(5, 6, 7, 9);
  const std::string payload(32, 'x');
  for (int i = 0; i < 8; ++i) {
    dm::net::ParsedPacket pkt;
    pkt.src_ip = client;
    pkt.dst_ip = server;
    pkt.src_port = 41000;
    pkt.dst_port = 80;
    pkt.seq = 1 + static_cast<std::uint32_t>(i) * 32;
    pkt.flags = {.ack = true};
    pkt.payload = std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(payload.data()), payload.size());
    reassembler.ingest(pkt, static_cast<std::uint64_t>(1 + i));
  }
  ASSERT_EQ(reassembler.flows().size(), 1u);
  EXPECT_LE(reassembler.flows()[0]->client_to_server.data.size(), 64u);
  EXPECT_GT(reassembler.counters().stream_capped, 0u);
  EXPECT_EQ(faults.count(DecodeErrorCode::kTcpStreamOverflow),
            reassembler.counters().stream_capped);
}

// ---------------------------------------------------------------------------
// HTTP layer
// ---------------------------------------------------------------------------

dm::net::DirectionStream stream_of(std::string data) {
  dm::net::DirectionStream s;
  s.chunks.push_back({0, data.size(), 100});
  s.data = std::move(data);
  return s;
}

TEST(HttpFaultTest, GarbageBetweenRequestsIsQuarantinedAndResynced) {
  FaultStats faults;
  const auto result = dm::http::parse_requests_ex(
      stream_of("GET /a HTTP/1.1\r\nHost: one.example\r\n\r\n"
                "\x01\x02 utter garbage, not a request line\r\n"
                "GET /b HTTP/1.1\r\nHost: two.example\r\n\r\n"),
      &faults);
  ASSERT_EQ(result.requests.size(), 2u);
  EXPECT_EQ(result.requests[0].uri, "/a");
  EXPECT_EQ(result.requests[1].uri, "/b");
  ASSERT_FALSE(result.errors.empty());
  EXPECT_EQ(result.errors[0].code, DecodeErrorCode::kHttpBadRequestLine);
  EXPECT_EQ(faults.total(), result.errors.size());
}

TEST(HttpFaultTest, TruncatedResponseSalvagesParsedPrefix) {
  FaultStats faults;
  const auto result = dm::http::parse_responses_ex(
      stream_of("HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"
                "HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\ncut!"),
      /*connection_closed=*/false, &faults);
  ASSERT_EQ(result.responses.size(), 1u);
  EXPECT_EQ(result.responses[0].body, "ok");
  ASSERT_EQ(result.errors.size(), 1u);
  EXPECT_EQ(result.errors[0].code, DecodeErrorCode::kHttpTruncatedMessage);
}

TEST(HttpFaultTest, BrokenChunkHeaderIsQuarantined) {
  FaultStats faults;
  const auto result = dm::http::parse_responses_ex(
      stream_of("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                "ZZZZ\r\nnot hex\r\n0\r\n\r\n"),
      /*connection_closed=*/true, &faults);
  EXPECT_GT(faults.count(DecodeErrorCode::kHttpBadChunk), 0u);
}

TEST(HttpFaultTest, MidStreamEofIsTruncationNotCrash) {
  dm::synth::TraceGenerator gen(51);
  const auto clean = dm::synth::episode_to_pcap(gen.benign());
  const std::size_t clean_count =
      dm::http::transactions_from_pcap(clean).size();
  ASSERT_GT(clean_count, 0u);

  auto capture = clean;
  dm::faultinject::drop_tail(capture, 0.25);
  FaultStats faults;
  const auto txns = dm::http::transactions_from_pcap(capture, &faults);
  // Connections cut mid-stream lose messages but never the parsed prefix of
  // the capture; nothing throws.
  EXPECT_LE(txns.size(), clean_count);
}

// ---------------------------------------------------------------------------
// Every code has a producer
// ---------------------------------------------------------------------------

/// One scripted HTTP exchange on one TCP connection (no teardown, so a
/// response without framing stays open).
dm::net::PcapFile conversation(std::string_view request,
                               std::string_view response) {
  dm::net::TcpConversationBuilder builder(
      dm::net::Ipv4Address::from_octets(10, 0, 0, 7), 40100,
      dm::net::Ipv4Address::from_octets(5, 6, 7, 10), 80);
  builder.handshake(1'000);
  builder.client_send(2'000, request);
  if (!response.empty()) builder.server_send(3'000, response);
  dm::net::PcapFile capture;
  capture.packets = builder.take_packets();
  return capture;
}

TEST(FaultCoverageTest, EveryDecodeErrorCodeIsRecordedByADecodePath) {
  // One input per code, each through its layer's public entry point, all
  // counted in one FaultStats.  A code no decode path records is dead
  // vocabulary: this fails for it.
  FaultStats faults;
  const std::string get = "GET / HTTP/1.1\r\nHost: a.example\r\n\r\n";
  const auto clean = conversation(get, "HTTP/1.1 204 No Content\r\n\r\n");
  const auto bytes = dm::net::write_pcap(clean);

  // pcap: a cut global header, a bad magic, a cut final record, a record
  // over the size cap.
  dm::net::decode_pcap_view(std::span(bytes).first(10), {}, &faults);
  auto bad_magic = bytes;
  bad_magic[0] ^= 0xff;
  dm::net::decode_pcap_view(bad_magic, {}, &faults);
  auto cut = bytes;
  dm::util::Rng rng(9);
  ASSERT_EQ(dm::faultinject::truncate_final_record(cut, rng), 1u);
  dm::net::decode_pcap_view(cut, {}, &faults);
  dm::net::decode_pcap_view(bytes, {.max_record_bytes = 16}, &faults);

  // frame: a garbled ethertype.
  auto garbled = clean;
  ASSERT_EQ(dm::faultinject::garble_ethertype(garbled, 1, rng), 1u);
  dm::http::transactions_from_pcap(garbled, &faults);

  // tcp: a lost first segment leaves the second gapped past a pending cap
  // of 0, and a 16-byte stream cap.
  const std::string two_segments(dm::net::TcpConversationBuilder::kMss + 1, 'x');
  auto lossy = conversation(two_segments, "");
  lossy.packets.erase(lossy.packets.begin() +
                      static_cast<std::ptrdiff_t>(
                          dm::faultinject::data_frame_indices(lossy).front()));
  reassemble(lossy, &faults, {.max_pending_segments = 0});
  reassemble(clean, &faults, {.max_stream_bytes = 16});

  // http: one malformed message per code, reconstructed end to end.
  for (const auto& [request, response] :
       std::vector<std::pair<std::string, std::string>>{
           {"\x01 not a request line\r\n", ""},
           {get, "not a status line\r\n"},
           {"POST / HTTP/1.1\r\nContent-Length: many\r\n\r\n", ""},
           {"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nZZ\r\n", ""},
           {"GET / HTTP/1.1\r\nHost: a.example\r\n", ""},
       }) {
    dm::http::transactions_from_pcap(conversation(request, response), &faults);
  }

  const auto recorded = faults.snapshot();
  for (std::size_t i = 0; i < dm::util::kDecodeErrorCodeCount; ++i) {
    const auto code = static_cast<DecodeErrorCode>(i);
    EXPECT_GT(recorded.count(code), 0u)
        << dm::util::decode_error_name(code) << " has no producer";
  }
}

// ---------------------------------------------------------------------------
// End to end: degradation bounds
// ---------------------------------------------------------------------------

TEST(EndToEndFaultTest, DuplicateSegmentsLeaveAlertsBitIdentical) {
  const auto clean = infection_capture(61, "Angler");
  auto mutated = clean;
  dm::util::Rng rng(7);
  ASSERT_EQ(dm::faultinject::duplicate_segments(mutated, 10, rng), 10u);

  const auto clean_alerts = alerts_of(clean);
  ASSERT_FALSE(clean_alerts.empty()) << "clean trace alerts; test is vacuous";
  const auto mutated_alerts = alerts_of(mutated);
  ASSERT_EQ(mutated_alerts.size(), clean_alerts.size());
  for (std::size_t i = 0; i < clean_alerts.size(); ++i) {
    EXPECT_EQ(mutated_alerts[i].ts_micros, clean_alerts[i].ts_micros);
    EXPECT_EQ(mutated_alerts[i].score, clean_alerts[i].score);
    EXPECT_EQ(mutated_alerts[i].trigger_host, clean_alerts[i].trigger_host);
  }
}

TEST(EndToEndFaultTest, SmallFrameLossDegradesRecallBoundedly) {
  // Three infection captures; garble two frames in each.  Losing a frame
  // can cost at most the flows it belongs to, so with fixed seeds the
  // mutated pipeline must keep at least half of the clean alerts — the
  // stated degradation bound for this corpus.
  const char* families[] = {"Angler", "Neutrino", "Nuclear"};
  std::size_t clean_total = 0;
  std::size_t mutated_total = 0;
  std::uint64_t injected_total = 0;
  FaultStats faults;
  for (std::uint64_t i = 0; i < 3; ++i) {
    const auto clean = infection_capture(70 + i, families[i]);
    clean_total += alerts_of(clean).size();
    auto mutated = clean;
    dm::util::Rng rng(80 + i);
    injected_total += dm::faultinject::garble_ethertype(mutated, 2, rng);
    mutated_total += alerts_of(mutated, &faults).size();
  }
  ASSERT_GE(clean_total, 2u) << "corpus too weak to state a recall bound";
  EXPECT_EQ(faults.count(DecodeErrorCode::kFrameUndecodable), injected_total);
  EXPECT_GE(mutated_total * 2, clean_total)
      << "recall degraded past the 50% bound: " << mutated_total << "/"
      << clean_total;
}

TEST(EndToEndFaultTest, MutationMatrixNeverCrashesThePipeline) {
  // Every mutator class x several seeds, straight through decode ->
  // reassembly -> HTTP -> transactions.  The only assertion is survival
  // plus self-consistent salvage — the fuzz fence for the whole stack.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    dm::synth::TraceGenerator gen(90 + seed);
    const auto clean = dm::synth::episode_to_pcap(gen.benign());
    const auto clean_bytes = dm::net::write_pcap(clean);

    for (int mutator = 0; mutator < 6; ++mutator) {
      dm::util::Rng rng(seed * 100 + static_cast<std::uint64_t>(mutator));
      FaultStats faults;
      std::vector<dm::http::HttpTransaction> txns;
      if (mutator <= 1) {
        auto bytes = clean_bytes;
        if (mutator == 0) dm::faultinject::corrupt_random_bytes(bytes, 80, rng);
        if (mutator == 1) dm::faultinject::truncate_final_record(bytes, rng);
        txns = dm::http::transactions_from_pcap(
            dm::net::decode_pcap_view(bytes, {}, &faults).file, &faults);
      } else {
        auto capture = clean;
        if (mutator == 2) dm::faultinject::reorder_records(capture, rng);
        if (mutator == 3) dm::faultinject::duplicate_segments(capture, 8, rng);
        if (mutator == 4) dm::faultinject::overlap_segments(capture, 6, rng);
        if (mutator == 5) dm::faultinject::drop_tail(capture, 0.4);
        txns = dm::http::transactions_from_pcap(capture, &faults);
      }
      for (const auto& txn : txns) {
        EXPECT_FALSE(txn.client_host.empty());
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Runtime: failure isolation, overload shedding, lifecycle
// ---------------------------------------------------------------------------

std::vector<dm::http::HttpTransaction> infection_stream(std::uint64_t seed) {
  dm::synth::TraceGenerator gen(seed);
  std::vector<dm::http::HttpTransaction> stream;
  const auto& families = dm::synth::exploit_kit_families();
  for (std::size_t i = 0; i < 4; ++i) {
    auto episode = gen.infection(families[i % families.size()]);
    for (auto& txn : episode.transactions) stream.push_back(std::move(txn));
  }
  std::stable_sort(stream.begin(), stream.end(),
                   [](const dm::http::HttpTransaction& a,
                      const dm::http::HttpTransaction& b) {
                     return a.request.ts_micros < b.request.ts_micros;
                   });
  return stream;
}

TEST(RuntimeFaultTest, DetectorThrowMidStreamShutsDownCleanly) {
  const auto stream = infection_stream(101);
  ASSERT_GT(stream.size(), 20u);

  auto thrown = std::make_shared<std::atomic<std::uint64_t>>(0);
  dm::runtime::ShardedOptions options;
  options.num_shards = 4;
  options.batch_size = 8;
  options.online = online_options();
  options.observe_fault_hook = [thrown](const dm::http::HttpTransaction&) {
    static std::atomic<std::uint64_t> calls{0};
    if (calls.fetch_add(1) % 5 == 0) {
      thrown->fetch_add(1);
      throw std::runtime_error("injected detector fault");
    }
  };

  dm::runtime::ShardedOnlineEngine engine(shared_detector(), options);
  for (const auto& txn : stream) engine.observe(txn);
  engine.finish();  // must join cleanly despite mid-stream throws

  const auto snap = engine.runtime_stats();
  const std::uint64_t expected_throws = thrown->load();
  EXPECT_EQ(expected_throws, (stream.size() + 4) / 5);
  EXPECT_EQ(snap.detector_failures, expected_throws);
  EXPECT_EQ(snap.transactions_in, stream.size());
  EXPECT_EQ(snap.transactions_out, stream.size());  // failures still consumed
  ASSERT_EQ(snap.per_shard_detector_failures.size(), 4u);
  std::uint64_t across_shards = 0;
  for (const auto n : snap.per_shard_detector_failures) across_shards += n;
  EXPECT_EQ(across_shards, expected_throws);
  // Transactions that threw never reached a shard detector.
  EXPECT_EQ(engine.aggregated_stats().transactions_seen,
            stream.size() - expected_throws);
  // Alert merge still works after a faulty run.
  (void)engine.merged_alerts();
}

TEST(RuntimeFaultTest, ClassifierFaultHookQuarantinesQueriesNotTheStream) {
  const auto stream = infection_stream(102);

  // Clean baseline must alert for the comparison to mean anything.
  dm::core::OnlineDetector clean(shared_detector(), online_options());
  for (const auto& txn : stream) clean.observe(txn);
  ASSERT_GT(clean.stats().alerts, 0u);
  ASSERT_GT(clean.stats().classifier_queries, 0u);

  auto options = online_options();
  options.classifier_fault_hook = [](const dm::http::HttpTransaction&) {
    throw std::runtime_error("injected classifier fault");
  };
  dm::core::OnlineDetector faulty(shared_detector(), options);
  for (const auto& txn : stream) faulty.observe(txn);
  // Every query failed, every failure was quarantined, nothing alerted,
  // nothing crashed — and the stream was fully consumed.
  EXPECT_EQ(faulty.stats().classifier_failures,
            faulty.stats().classifier_queries);
  EXPECT_GT(faulty.stats().classifier_failures, 0u);
  EXPECT_EQ(faulty.stats().alerts, 0u);
  EXPECT_EQ(faulty.stats().transactions_seen, stream.size());
}

TEST(RuntimeFaultTest, ModelSplittingPastTheFeatureVectorFailsQueriesNotTheProcess) {
  // A loadable model whose root splits on feature 5,000,000 of the 37-wide
  // vector: every query must fail as a counted classifier failure, not
  // read out of bounds.
  const auto stream = infection_stream(102);
  std::istringstream model(
      "dynaminer-forest v1\ntrees 1 combination avg\ntree 3 1\n"
      "node 1 2 5000000 0x0p+0 0x0p+0\n"
      "node -1 -1 0 0x0p+0 0x0p+0\nnode -1 -1 0 0x0p+0 0x1p+0\n");
  const auto detector =
      std::make_shared<const dm::core::Detector>(dm::ml::load_forest(model));
  dm::core::OnlineDetector engine(detector, online_options());
  for (const auto& txn : stream) engine.observe(txn);
  EXPECT_GT(engine.stats().classifier_failures, 0u);
  EXPECT_EQ(engine.stats().classifier_failures, engine.stats().classifier_queries);
  EXPECT_EQ(engine.stats().alerts, 0u);
  EXPECT_EQ(engine.stats().transactions_seen, stream.size());
}

dm::runtime::StatsSnapshot run_with_policy(
    dm::runtime::OverloadPolicy policy, std::size_t transactions) {
  dm::runtime::ShardedOptions options;
  options.num_shards = 1;
  options.queue_capacity = 1;
  options.batch_size = 1;
  options.overload = policy;
  options.online = online_options();
  // Slow consumer: each transaction costs the worker 200us, while the
  // dispatcher produces as fast as it can — a sustained overload.
  options.observe_fault_hook = [](const dm::http::HttpTransaction&) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  };
  dm::runtime::ShardedOnlineEngine engine(shared_detector(), options);
  dm::http::HttpTransaction txn;
  txn.client_host = "10.9.9.9";
  txn.server_host = "srv.example";
  txn.request.method = "GET";
  txn.request.uri = "/";
  for (std::size_t i = 0; i < transactions; ++i) {
    txn.request.ts_micros = 1'000'000 + i;
    engine.observe(txn);
  }
  engine.finish();
  return engine.runtime_stats();
}

TEST(RuntimeFaultTest, ShedOldestObeysConservationLaw) {
  const auto snap = run_with_policy(dm::runtime::OverloadPolicy::kShedOldest, 400);
  EXPECT_EQ(snap.transactions_in, 400u);
  EXPECT_EQ(snap.transactions_in, snap.transactions_out + snap.transactions_shed);
  EXPECT_GT(snap.transactions_shed, 0u);
  EXPECT_GT(snap.batches_shed, 0u);
}

TEST(RuntimeFaultTest, ShedNewestObeysConservationLaw) {
  const auto snap = run_with_policy(dm::runtime::OverloadPolicy::kShedNewest, 400);
  EXPECT_EQ(snap.transactions_in, 400u);
  EXPECT_EQ(snap.transactions_in, snap.transactions_out + snap.transactions_shed);
  EXPECT_GT(snap.transactions_shed, 0u);
}

TEST(RuntimeFaultTest, BlockPolicyIsLosslessUnderTheSameOverload) {
  const auto snap = run_with_policy(dm::runtime::OverloadPolicy::kBlock, 200);
  EXPECT_EQ(snap.transactions_in, 200u);
  EXPECT_EQ(snap.transactions_out, 200u);
  EXPECT_EQ(snap.transactions_shed, 0u);
  EXPECT_EQ(snap.batches_shed, 0u);
}

#ifdef NDEBUG
TEST(RuntimeFaultTest, ObserveAfterFinishIsCountedNotSilent) {
  // In debug builds this asserts (caller bug); in release the drop must be
  // visible in the stats instead of vanishing.
  dm::runtime::ShardedOptions options;
  options.num_shards = 2;
  options.online = online_options();
  dm::runtime::ShardedOnlineEngine engine(shared_detector(), options);
  dm::http::HttpTransaction txn;
  txn.client_host = "10.1.1.1";
  txn.server_host = "late.example";
  engine.observe(txn);
  engine.finish();
  engine.observe(txn);
  engine.observe(txn);
  const auto snap = engine.runtime_stats();
  EXPECT_EQ(snap.dropped_after_finish, 2u);
  EXPECT_EQ(snap.transactions_in, 1u);  // post-finish drops are not "in"
}
#endif

}  // namespace
}  // namespace dm
