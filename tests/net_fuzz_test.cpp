// Robustness sweeps over the wire-format parsers: random mutation,
// truncation and garbage must never crash, hang, or corrupt state — the
// on-the-wire deployment (§V-B) parses adversarial traffic by definition.
#include <gtest/gtest.h>

#include "fault_inject.h"
#include "http/transaction_stream.h"
#include "net/packet.h"
#include "net/packet_builder.h"
#include "net/pcap.h"
#include "net/tcp_reassembly.h"
#include "synth/pcap_export.h"
#include "util/rng.h"

namespace dm::net {
namespace {

std::vector<std::uint8_t> valid_capture_bytes() {
  dm::synth::TraceGenerator gen(3);
  const auto episode = gen.benign();
  return write_pcap(dm::synth::episode_to_pcap(episode));
}

class PcapMutationTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PcapMutationTest, MutatedBytesNeverCrash) {
  auto bytes = valid_capture_bytes();
  dm::util::Rng rng(GetParam());
  // Flip ~50 random bytes.
  for (int i = 0; i < 50; ++i) {
    const auto at = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(bytes.size()) - 1));
    bytes[at] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  // Rejecting the mutation outright (a fatal header) is acceptable; whatever
  // survives must be self-consistent slices of the input.
  const auto parsed = decode_pcap_view(bytes);
  for (const auto& pkt : parsed.file.packets) {
    EXPECT_LE(pkt.data.size(), bytes.size());
    if (!pkt.data.empty()) {
      EXPECT_GE(pkt.data.data(), bytes.data());
      EXPECT_LE(pkt.data.data() + pkt.data.size(), bytes.data() + bytes.size());
    }
  }
}

TEST_P(PcapMutationTest, TruncationNeverCrashes) {
  const auto bytes = valid_capture_bytes();
  dm::util::Rng rng(GetParam() ^ 77);
  for (int i = 0; i < 20; ++i) {
    const auto len = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(bytes.size())));
    std::vector<std::uint8_t> cut(bytes.begin(),
                                  bytes.begin() + static_cast<std::ptrdiff_t>(len));
    const auto parsed = decode_pcap_view(cut);
    // Only a cut inside the 24-byte global header is fatal.
    EXPECT_EQ(parsed.fatal, len < 24) << len;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PcapMutationTest,
                         ::testing::Values(11, 22, 33, 44, 55));

TEST(PacketFuzzTest, RandomFramesNeverCrashParser) {
  dm::util::Rng rng(7);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint8_t> frame(
        static_cast<std::size_t>(rng.uniform_int(0, 120)));
    for (auto& b : frame) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    const auto parsed = parse_ethernet_ipv4_tcp(frame);
    if (parsed) {
      // Any accepted frame must have a payload inside the buffer.
      EXPECT_LE(parsed->payload.size(), frame.size());
    }
  }
}

TEST(PacketFuzzTest, MutatedValidFrameParsesOrRejectsCleanly) {
  FrameSpec spec;
  spec.src_ip = Ipv4Address::from_octets(10, 0, 0, 2);
  spec.dst_ip = Ipv4Address::from_octets(1, 2, 3, 4);
  spec.src_port = 1234;
  spec.dst_port = 80;
  spec.flags = {.ack = true};
  const std::string payload = "GET / HTTP/1.1\r\n\r\n";
  spec.payload = std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(payload.data()), payload.size());
  const auto base = build_frame(spec);

  dm::util::Rng rng(8);
  for (int trial = 0; trial < 500; ++trial) {
    auto frame = base;
    const auto at = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(frame.size()) - 1));
    frame[at] ^= static_cast<std::uint8_t>(1 + rng.uniform_int(0, 254));
    const auto parsed = parse_ethernet_ipv4_tcp(frame);
    if (parsed) {
      EXPECT_LE(parsed->payload.size(), frame.size());
    }
  }
}

TEST(ReassemblyFuzzTest, ShuffledSegmentsReconstructExactly) {
  // Deliver a message as segments in random order; the reassembled stream
  // must always equal the original once everything arrived.
  const std::string message =
      "The quick brown fox jumps over the lazy dog 0123456789 "
      "the payload-agnostic web conversation graph";
  const Ipv4Address client = Ipv4Address::from_octets(10, 0, 0, 2);
  const Ipv4Address server = Ipv4Address::from_octets(5, 6, 7, 8);

  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    dm::util::Rng rng(seed);
    // Split into random chunks.
    struct Seg {
      std::uint32_t seq;
      std::string data;
    };
    std::vector<Seg> segments;
    std::size_t at = 0;
    while (at < message.size()) {
      const auto len = static_cast<std::size_t>(
          rng.uniform_int(1, 12));
      const auto take = std::min(len, message.size() - at);
      segments.push_back({static_cast<std::uint32_t>(101 + at),
                          message.substr(at, take)});
      at += take;
    }
    // Duplicate a couple of segments (retransmissions).
    if (segments.size() > 2) {
      segments.push_back(segments[0]);
      segments.push_back(segments[segments.size() / 2]);
    }
    rng.shuffle(segments);

    TcpReassembler reassembler;
    ParsedPacket syn;
    syn.src_ip = client;
    syn.dst_ip = server;
    syn.src_port = 40000;
    syn.dst_port = 80;
    syn.seq = 100;
    syn.flags = {.syn = true};
    reassembler.ingest(syn, 1);

    std::uint64_t ts = 2;
    for (const auto& segment : segments) {
      ParsedPacket pkt;
      pkt.src_ip = client;
      pkt.dst_ip = server;
      pkt.src_port = 40000;
      pkt.dst_port = 80;
      pkt.seq = segment.seq;
      pkt.flags = {.ack = true};
      pkt.payload = std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(segment.data.data()),
          segment.data.size());
      reassembler.ingest(pkt, ts++);
    }
    ASSERT_EQ(reassembler.flows().size(), 1u) << "seed " << seed;
    EXPECT_EQ(reassembler.flows()[0]->client_to_server.data, message)
        << "seed " << seed;
  }
}

// Crash-regression corpus: explicit nasty capture bytes, pinned with fixed
// content so a decoder change that reintroduces a crash — or starts
// throwing where quarantine is required — fails loudly.
TEST(PcapCrashCorpusTest, KnownNastyCapturesStayQuarantined) {
  auto with_header = [](std::initializer_list<std::uint8_t> tail) {
    // Valid LE usec global header, then the nasty bytes.
    std::vector<std::uint8_t> bytes = {
        0xd4, 0xc3, 0xb2, 0xa1, 0x02, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0xff, 0xff, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00};
    bytes.reserve(bytes.size() + tail.size());
    for (const auto b : tail) bytes.push_back(b);
    return bytes;
  };
  const std::vector<std::vector<std::uint8_t>> corpus = {
      // incl_len = 0xFFFFFFFF: absurd length prefix, nothing addressable.
      with_header({0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff,
                   0xff, 0xff, 0xff, 0xff}),
      // incl_len = 0 forever would be fine; here a zero record then a cut one.
      with_header({0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                   0, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 'x'}),
      // 15-byte record header: one byte short of parseable.
      with_header({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}),
      // record claims 4 bytes, carries 2.
      with_header({0, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 4, 0, 0, 0, 'a', 'b'}),
  };
  for (const auto& bytes : corpus) {
    dm::util::FaultStats faults;
    const auto result = decode_pcap_view(bytes, {}, &faults);
    // Only header faults are fatal.
    EXPECT_FALSE(result.fatal);
    EXPECT_EQ(faults.total(), result.errors.size());
    EXPECT_FALSE(result.errors.empty());
  }
}

TEST(FrameCrashCorpusTest, KnownNastyFramesAreRejectedNotCrashed) {
  // Ethernet/IPv4/TCP headers with hostile length fields: bad IHL, IP
  // total_length larger than the buffer, TCP data offset past the segment.
  auto frame_with = [](std::uint8_t ihl_version, std::uint8_t total_len_hi,
                       std::uint8_t total_len_lo, std::uint8_t data_offset) {
    std::vector<std::uint8_t> frame(60, 0);
    frame[12] = 0x08;  // IPv4 ethertype
    frame[13] = 0x00;
    frame[14] = ihl_version;
    frame[16] = total_len_hi;
    frame[17] = total_len_lo;
    frame[23] = 6;  // TCP
    frame[14 + 20 + 12] = data_offset;
    return frame;
  };
  const std::vector<std::vector<std::uint8_t>> corpus = {
      frame_with(0x40, 0, 40, 0x50),  // IHL = 0: under minimum
      frame_with(0x4f, 0, 40, 0x50),  // IHL = 60 > header room
      frame_with(0x45, 0xff, 0xff, 0x50),  // total_length 65535 > buffer
      frame_with(0x45, 0, 10, 0x50),       // total_length < IHL
      frame_with(0x45, 0, 40, 0x10),       // TCP data offset 4 < 20 bytes
      frame_with(0x45, 0, 40, 0xf0),       // TCP data offset 60 > segment
  };
  for (const auto& frame : corpus) {
    EXPECT_EQ(parse_ethernet_ipv4_tcp(frame), std::nullopt);
  }
}

TEST(MutatorCrashCorpusTest, EveryMutatorClassSurvivesFullReconstruction) {
  // Fixed seeds x every fault_inject.h mutator class, through the whole
  // Stage-1 stack.  Complements the harness's accounting tests: this one is
  // purely the no-crash fence, kept in the fuzz suite.
  for (const std::uint64_t seed : {7u, 8u, 9u}) {
    dm::synth::TraceGenerator gen(seed);
    const auto clean = dm::synth::episode_to_pcap(gen.benign());
    const auto clean_bytes = write_pcap(clean);
    for (int mutator = 0; mutator < 7; ++mutator) {
      dm::util::Rng rng(seed * 31 + static_cast<std::uint64_t>(mutator));
      dm::util::FaultStats faults;
      std::vector<dm::http::HttpTransaction> txns;
      if (mutator <= 2) {
        auto bytes = clean_bytes;
        if (mutator == 0) dm::faultinject::corrupt_random_bytes(bytes, 100, rng);
        if (mutator == 1) dm::faultinject::truncate_final_record(bytes, rng);
        if (mutator == 2) dm::faultinject::cut_record_header(bytes, rng);
        txns = dm::http::transactions_from_pcap(
            decode_pcap_view(bytes, {}, &faults).file, &faults);
      } else {
        auto capture = clean;
        if (mutator == 3) dm::faultinject::reorder_records(capture, rng);
        if (mutator == 4) dm::faultinject::duplicate_segments(capture, 10, rng);
        if (mutator == 5) dm::faultinject::overlap_segments(capture, 10, rng);
        if (mutator == 6) dm::faultinject::garble_ethertype(capture, 10, rng);
        txns = dm::http::transactions_from_pcap(capture, &faults);
      }
      for (const auto& txn : txns) {
        EXPECT_FALSE(txn.server_host.empty());
      }
    }
  }
}

TEST(ReassemblyFuzzTest, RandomPacketsNeverCrash) {
  dm::util::Rng rng(9);
  TcpReassembler reassembler;
  std::vector<std::uint8_t> junk(64);
  for (int trial = 0; trial < 3000; ++trial) {
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    ParsedPacket pkt;
    pkt.src_ip.value = static_cast<std::uint32_t>(rng.next_u64());
    pkt.dst_ip.value = static_cast<std::uint32_t>(rng.next_u64());
    pkt.src_port = static_cast<std::uint16_t>(rng.uniform_int(0, 65535));
    pkt.dst_port = static_cast<std::uint16_t>(rng.uniform_int(0, 65535));
    pkt.seq = static_cast<std::uint32_t>(rng.next_u64());
    pkt.flags.syn = rng.chance(0.1);
    pkt.flags.fin = rng.chance(0.1);
    pkt.flags.rst = rng.chance(0.05);
    pkt.flags.ack = rng.chance(0.8);
    const auto len = static_cast<std::size_t>(rng.uniform_int(0, 64));
    pkt.payload = std::span<const std::uint8_t>(junk.data(), len);
    reassembler.ingest(pkt, static_cast<std::uint64_t>(trial));
  }
  // Bounded growth: at most one flow per unique 4-tuple fed in.
  EXPECT_LE(reassembler.flow_count(), 3000u);
}

}  // namespace
}  // namespace dm::net
