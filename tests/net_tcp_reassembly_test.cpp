#include "net/tcp_reassembly.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "util/rng.h"

namespace dm::net {
namespace {

ParsedPacket data_packet(Ipv4Address src, std::uint16_t sport, Ipv4Address dst,
                         std::uint16_t dport, std::uint32_t seq,
                         std::string_view payload, TcpFlags flags = {.ack = true}) {
  ParsedPacket pkt;
  pkt.src_ip = src;
  pkt.dst_ip = dst;
  pkt.src_port = sport;
  pkt.dst_port = dport;
  pkt.seq = seq;
  pkt.flags = flags;
  pkt.payload = std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(payload.data()), payload.size());
  return pkt;
}

const Ipv4Address kClient = Ipv4Address::from_octets(10, 0, 0, 2);
const Ipv4Address kServer = Ipv4Address::from_octets(93, 184, 216, 34);

TEST(FlowKeyTest, CanonicalOrderIndependent) {
  const auto a = FlowKey::canonical(kClient, 40000, kServer, 80);
  const auto b = FlowKey::canonical(kServer, 80, kClient, 40000);
  EXPECT_EQ(a, b);
  EXPECT_EQ(FlowKeyHash{}(a), FlowKeyHash{}(b));
}

TEST(TcpReassemblyTest, InOrderDelivery) {
  TcpReassembler r;
  r.ingest(data_packet(kClient, 40000, kServer, 80, 100, "", {.syn = true}), 1);
  r.ingest(data_packet(kClient, 40000, kServer, 80, 101, "hello "), 2);
  r.ingest(data_packet(kClient, 40000, kServer, 80, 107, "world"), 3);
  const auto flows = r.flows();
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0]->client_to_server.data, "hello world");
  EXPECT_TRUE(flows[0]->saw_syn);
  EXPECT_EQ(flows[0]->client_ip, kClient);
}

TEST(TcpReassemblyTest, OutOfOrderReordered) {
  TcpReassembler r;
  r.ingest(data_packet(kClient, 40000, kServer, 80, 100, "", {.syn = true}), 1);
  r.ingest(data_packet(kClient, 40000, kServer, 80, 107, "world"), 2);  // early
  r.ingest(data_packet(kClient, 40000, kServer, 80, 101, "hello "), 3);
  EXPECT_EQ(r.flows()[0]->client_to_server.data, "hello world");
}

TEST(TcpReassemblyTest, DuplicateSegmentsIgnored) {
  TcpReassembler r;
  r.ingest(data_packet(kClient, 40000, kServer, 80, 100, "", {.syn = true}), 1);
  r.ingest(data_packet(kClient, 40000, kServer, 80, 101, "abc"), 2);
  r.ingest(data_packet(kClient, 40000, kServer, 80, 101, "abc"), 3);  // retransmit
  EXPECT_EQ(r.flows()[0]->client_to_server.data, "abc");
}

TEST(TcpReassemblyTest, OverlappingSegmentTrimmed) {
  TcpReassembler r;
  r.ingest(data_packet(kClient, 40000, kServer, 80, 100, "", {.syn = true}), 1);
  r.ingest(data_packet(kClient, 40000, kServer, 80, 101, "abcdef"), 2);
  // Overlaps last 3 bytes, extends 3 more.
  r.ingest(data_packet(kClient, 40000, kServer, 80, 104, "defghi"), 3);
  EXPECT_EQ(r.flows()[0]->client_to_server.data, "abcdefghi");
}

TEST(TcpReassemblyTest, BothDirectionsSeparate) {
  TcpReassembler r;
  r.ingest(data_packet(kClient, 40000, kServer, 80, 100, "", {.syn = true}), 1);
  r.ingest(data_packet(kServer, 80, kClient, 40000, 500, "",
                       {.syn = true, .ack = true}),
           2);
  r.ingest(data_packet(kClient, 40000, kServer, 80, 101, "request"), 3);
  r.ingest(data_packet(kServer, 80, kClient, 40000, 501, "response"), 4);
  const auto* flow = r.flows()[0];
  EXPECT_EQ(flow->client_to_server.data, "request");
  EXPECT_EQ(flow->server_to_client.data, "response");
}

TEST(TcpReassemblyTest, MultipleFlowsTrackedInOrder) {
  TcpReassembler r;
  const auto server2 = Ipv4Address::from_octets(1, 2, 3, 4);
  r.ingest(data_packet(kClient, 40000, kServer, 80, 100, "", {.syn = true}), 1);
  r.ingest(data_packet(kClient, 40001, server2, 80, 200, "", {.syn = true}), 2);
  r.ingest(data_packet(kClient, 40001, server2, 80, 201, "bbb"), 3);
  r.ingest(data_packet(kClient, 40000, kServer, 80, 101, "aaa"), 4);
  const auto flows = r.flows();
  ASSERT_EQ(flows.size(), 2u);
  EXPECT_EQ(flows[0]->client_to_server.data, "aaa");
  EXPECT_EQ(flows[1]->client_to_server.data, "bbb");
}

TEST(TcpReassemblyTest, FinMarksClosed) {
  TcpReassembler r;
  r.ingest(data_packet(kClient, 40000, kServer, 80, 100, "", {.syn = true}), 1);
  EXPECT_FALSE(r.flows()[0]->closed);
  r.ingest(data_packet(kClient, 40000, kServer, 80, 101, "",
                       {.ack = true, .fin = true}),
           2);
  EXPECT_TRUE(r.flows()[0]->closed);
}

TEST(TcpReassemblyTest, RstMarksClosed) {
  TcpReassembler r;
  r.ingest(data_packet(kClient, 40000, kServer, 80, 100, "", {.syn = true}), 1);
  r.ingest(data_packet(kClient, 40000, kServer, 80, 101, "", {.rst = true}), 2);
  EXPECT_TRUE(r.flows()[0]->closed);
}

TEST(TcpReassemblyTest, MidStreamCaptureAdoptsSequence) {
  TcpReassembler r;
  // No SYN seen: first data packet seeds the stream.
  r.ingest(data_packet(kClient, 40000, kServer, 80, 5000, "partial"), 1);
  EXPECT_EQ(r.flows()[0]->client_to_server.data, "partial");
}

TEST(TcpReassemblyTest, LeadingSynAckNamesItsReceiverTheClient) {
  // The capture began after the client's SYN: the server's SYN-ACK comes
  // first, and the client is the end it answers, not its sender.
  TcpReassembler r;
  r.ingest(data_packet(kServer, 80, kClient, 40000, 5000, "",
                       {.syn = true, .ack = true}),
           1);
  r.ingest(data_packet(kClient, 40000, kServer, 80, 101, "GET / HTTP/1.1\r\n\r\n"), 2);
  r.ingest(data_packet(kServer, 80, kClient, 40000, 5001, "HTTP/1.1 200 OK\r\n"), 3);
  const auto flows = r.flows();
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0]->client_ip, kClient);
  EXPECT_EQ(flows[0]->client_port, 40000);
  EXPECT_EQ(flows[0]->server_ip, kServer);
  EXPECT_EQ(flows[0]->server_port, 80);
  EXPECT_TRUE(flows[0]->saw_syn);
  EXPECT_EQ(flows[0]->client_to_server.data, "GET / HTTP/1.1\r\n\r\n");
  EXPECT_EQ(flows[0]->server_to_client.data, "HTTP/1.1 200 OK\r\n");
}

TEST(TcpReassemblyTest, LeadingServerDataNamesTheLowerPortTheServer) {
  // The capture began inside a response: the server's data segment comes
  // first.  Its sender holds the lower port, so its receiver is the client.
  TcpReassembler r;
  r.ingest(data_packet(kServer, 80, kClient, 40000, 6400, "body tail"), 1);
  r.ingest(data_packet(kClient, 40000, kServer, 80, 120, "GET /b HTTP/1.1\r\n\r\n"), 2);
  r.ingest(data_packet(kServer, 80, kClient, 40000, 6409, "HTTP/1.1 200 OK\r\n"), 3);
  const auto flows = r.flows();
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0]->client_ip, kClient);
  EXPECT_EQ(flows[0]->client_port, 40000);
  EXPECT_EQ(flows[0]->server_ip, kServer);
  EXPECT_EQ(flows[0]->server_port, 80);
  EXPECT_FALSE(flows[0]->saw_syn);
  EXPECT_EQ(flows[0]->client_to_server.data, "GET /b HTTP/1.1\r\n\r\n");
  EXPECT_EQ(flows[0]->server_to_client.data, "body tailHTTP/1.1 200 OK\r\n");

  // With equal ports the port rule cannot tell: the sender stays the client.
  TcpReassembler peers;
  peers.ingest(data_packet(kServer, 5000, kClient, 5000, 1, "ping"), 1);
  ASSERT_EQ(peers.flows().size(), 1u);
  EXPECT_EQ(peers.flows()[0]->client_ip, kServer);
  EXPECT_EQ(peers.flows()[0]->client_to_server.data, "ping");
}

TEST(TcpReassemblyTest, TimestampsTrackChunks) {
  TcpReassembler r;
  r.ingest(data_packet(kClient, 40000, kServer, 80, 100, "", {.syn = true}), 10);
  r.ingest(data_packet(kClient, 40000, kServer, 80, 101, "aaa"), 20);
  r.ingest(data_packet(kClient, 40000, kServer, 80, 104, "bbb"), 30);
  const auto& stream = r.flows()[0]->client_to_server;
  EXPECT_EQ(stream.timestamp_at(0), 20u);
  EXPECT_EQ(stream.timestamp_at(2), 20u);
  EXPECT_EQ(stream.timestamp_at(3), 30u);
  EXPECT_EQ(stream.timestamp_at(99), 0u);
}

/// timestamp_at's definition: the timestamp of the first chunk holding the
/// byte, 0 when none does.
std::uint64_t linear_timestamp_at(const DirectionStream& stream,
                                  std::size_t offset) {
  for (const auto& chunk : stream.chunks) {
    if (offset >= chunk.offset && offset < chunk.offset + chunk.length) {
      return chunk.ts_micros;
    }
  }
  return 0;
}

TEST(TcpReassemblyTest, TimestampLookupMatchesLinearDefinition) {
  // Segments of 1-20 bytes, each re-sending up to 4 bytes of the one before
  // it, with one neighbouring pair in three swapped: a reordered,
  // overlapping stream whose chunk timestamps are not monotone.
  std::string text(3000, ' ');
  for (std::size_t i = 0; i < text.size(); ++i) {
    text[i] = static_cast<char>('a' + i % 26);
  }
  struct Segment {
    std::uint32_t seq;
    std::string_view bytes;
  };
  std::vector<Segment> segments;
  dm::util::Rng rng(5);
  for (std::size_t end = 0; end < text.size();) {
    const auto back = std::min(end, static_cast<std::size_t>(rng.uniform_int(0, 4)));
    const std::size_t start = end - back;
    const auto len = std::min(text.size() - start,
                              back + static_cast<std::size_t>(rng.uniform_int(1, 16)));
    segments.push_back({static_cast<std::uint32_t>(101 + start),
                        std::string_view(text).substr(start, len)});
    end = start + len;
  }
  for (std::size_t i = 0; i + 1 < segments.size(); i += 2) {
    if (rng.uniform_int(0, 2) == 0) std::swap(segments[i], segments[i + 1]);
  }
  TcpReassembler r;
  r.ingest(data_packet(kClient, 40000, kServer, 80, 100, "", {.syn = true}), 1);
  std::uint64_t ts = 10;
  for (const auto& segment : segments) {
    r.ingest(data_packet(kClient, 40000, kServer, 80, segment.seq, segment.bytes),
             ts++);
  }
  const auto& stream = r.flows()[0]->client_to_server;
  ASSERT_EQ(stream.data, text);
  ASSERT_GT(stream.chunks.size(), 200u);
  ASSERT_GT(r.counters().overlapping_segments, 0u);

  std::vector<std::size_t> probes;
  for (const auto& chunk : stream.chunks) {
    probes.push_back(chunk.offset);                     // boundary
    probes.push_back(chunk.offset + chunk.length / 2);  // inside
    probes.push_back(chunk.offset + chunk.length - 1);  // last byte
  }
  for (const std::size_t past : {0, 1, 7, 1000}) probes.push_back(text.size() + past);
  for (const std::size_t offset : probes) {
    EXPECT_EQ(stream.timestamp_at(offset), linear_timestamp_at(stream, offset))
        << "offset " << offset;
  }
  EXPECT_EQ(stream.timestamp_at(text.size()), 0u);
}

TEST(TcpReassemblyTest, SequenceWraparound) {
  TcpReassembler r;
  const std::uint32_t near_max = 0xfffffffe;
  r.ingest(data_packet(kClient, 40000, kServer, 80, near_max, "ab"), 1);
  r.ingest(data_packet(kClient, 40000, kServer, 80, 0, "cd"), 2);  // wrapped
  EXPECT_EQ(r.flows()[0]->client_to_server.data, "abcd");
}

TEST(TcpReassemblyTest, FirstAndLastTimestamps) {
  TcpReassembler r;
  r.ingest(data_packet(kClient, 40000, kServer, 80, 100, "", {.syn = true}), 111);
  r.ingest(data_packet(kClient, 40000, kServer, 80, 101, "x"), 222);
  const auto* flow = r.flows()[0];
  EXPECT_EQ(flow->first_ts_micros, 111u);
  EXPECT_EQ(flow->last_ts_micros, 222u);
}

}  // namespace
}  // namespace dm::net
