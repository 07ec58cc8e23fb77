#include "net/pcap.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>

#include "net/pcap_mmap.h"

namespace dm::net {
namespace {

PcapFile sample_file() {
  PcapFile file;
  file.packets.push_back({1000000, {0x01, 0x02, 0x03}});
  file.packets.push_back({2500000, {0xff}});
  file.packets.push_back({2500001, {}});
  return file;
}

std::vector<std::uint8_t> bytes_of(std::span<const std::uint8_t> slice) {
  return {slice.begin(), slice.end()};
}

TEST(PcapTest, WriteReadRoundTrip) {
  const auto original = sample_file();
  const auto bytes = write_pcap(original);
  const auto parsed = decode_pcap_view(bytes).file;
  EXPECT_EQ(parsed.link_type, 1u);
  ASSERT_EQ(parsed.packets.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(parsed.packets[i].ts_micros, original.packets[i].ts_micros);
    EXPECT_EQ(bytes_of(parsed.packets[i].data), original.packets[i].data);
  }
}

TEST(PcapTest, GlobalHeaderFields) {
  const auto bytes = write_pcap({});
  ASSERT_GE(bytes.size(), 24u);
  // Little-endian usec magic.
  EXPECT_EQ(bytes[0], 0xd4);
  EXPECT_EQ(bytes[1], 0xc3);
  EXPECT_EQ(bytes[2], 0xb2);
  EXPECT_EQ(bytes[3], 0xa1);
  // Version 2.4.
  EXPECT_EQ(bytes[4], 2);
  EXPECT_EQ(bytes[6], 4);
}

TEST(PcapTest, RejectsBadMagic) {
  std::vector<std::uint8_t> bytes(24, 0);
  const auto result = decode_pcap_view(bytes);
  EXPECT_TRUE(result.fatal);
  ASSERT_EQ(result.errors.size(), 1u);
  EXPECT_EQ(result.errors[0].code, dm::util::DecodeErrorCode::kPcapBadMagic);
  EXPECT_TRUE(result.file.packets.empty());
}

TEST(PcapTest, RejectsTruncatedHeader) {
  std::vector<std::uint8_t> bytes(10, 0);
  const auto result = decode_pcap_view(bytes);
  EXPECT_TRUE(result.fatal);
  ASSERT_EQ(result.errors.size(), 1u);
  EXPECT_EQ(result.errors[0].code,
            dm::util::DecodeErrorCode::kPcapTruncatedHeader);
  EXPECT_TRUE(result.file.packets.empty());
}

TEST(PcapTest, DropsTruncatedFinalRecord) {
  auto bytes = write_pcap(sample_file());
  bytes.pop_back();  // truncate the last packet's data
  const auto result = decode_pcap_view(bytes);
  EXPECT_FALSE(result.fatal);
  EXPECT_EQ(result.file.packets.size(), 2u);
}

TEST(PcapTest, ViewDecodeSizesThePacketArrayExactly) {
  // Seven records of 10..16 bytes; a doubling array would end with room for
  // eight, or for four after three.
  PcapFile file;
  for (std::uint8_t i = 0; i < 7; ++i) {
    file.packets.push_back({1000000u + i, std::vector<std::uint8_t>(10 + i, i)});
  }
  const auto bytes = write_pcap(file);
  const auto expect_exact = [](const PcapViewDecodeResult& result,
                               std::size_t kept, const char* what) {
    EXPECT_EQ(result.file.packets.size(), kept) << what;
    EXPECT_EQ(result.file.packets.capacity(), result.file.packets.size()) << what;
  };

  expect_exact(decode_pcap_view(bytes), 7, "clean");

  auto cut_record = bytes;
  cut_record.pop_back();  // the last record loses a byte of its data
  const auto truncated = decode_pcap_view(cut_record);
  EXPECT_TRUE(truncated.truncated_tail);
  expect_exact(truncated, 6, "truncated record");

  auto cut_header = bytes;
  cut_header.insert(cut_header.end(), 9, 0);  // a record header cut mid-write
  const auto trailing = decode_pcap_view(cut_header);
  EXPECT_TRUE(trailing.truncated_tail);
  expect_exact(trailing, 7, "cut record header");

  PcapDecodeOptions options;
  options.max_record_bytes = 12;  // the fourth record (13 bytes) is oversized
  const auto oversized = decode_pcap_view(bytes, options);
  ASSERT_EQ(oversized.errors.size(), 1u);
  EXPECT_EQ(oversized.errors.front().code,
            dm::util::DecodeErrorCode::kPcapOversizedRecord);
  expect_exact(oversized, 3, "oversized record");
}

TEST(PcapTest, ReadsNanosecondMagic) {
  auto bytes = write_pcap(sample_file());
  // Rewrite magic to little-endian nanosecond variant.
  bytes[0] = 0x4d;
  bytes[1] = 0x3c;
  bytes[2] = 0xb2;
  bytes[3] = 0xa1;
  const auto parsed = decode_pcap_view(bytes).file;
  ASSERT_EQ(parsed.packets.size(), 3u);
  // Fractional part now interpreted as nanoseconds: 0 usec becomes 0,
  // 500000 "ns" -> 500 us.
  EXPECT_EQ(parsed.packets[0].ts_micros, 1000000u);
  EXPECT_EQ(parsed.packets[1].ts_micros, 2000500u);
}

TEST(PcapTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/dm_pcap_test.pcap";
  const auto original = sample_file();
  write_pcap_file(path, original);
  {
    const MappedPcap parsed(path);
    EXPECT_FALSE(parsed.result().fatal);
    ASSERT_EQ(parsed.file().packets.size(), original.packets.size());
    for (std::size_t i = 0; i < original.packets.size(); ++i) {
      EXPECT_EQ(bytes_of(parsed.file().packets[i].data),
                original.packets[i].data);
    }
  }
  std::remove(path.c_str());
}

TEST(PcapTest, MissingFileThrows) {
  EXPECT_THROW(MappedPcap("/nonexistent/definitely/missing.pcap"),
               std::runtime_error);
}

TEST(PcapTest, LargeTimestampPreserved) {
  PcapFile file;
  const std::uint64_t ts = 1467849600ULL * 1000000 + 123456;  // 2016-07-07
  file.packets.push_back({ts, {0x00}});
  const auto bytes = write_pcap(file);
  const auto parsed = decode_pcap_view(bytes).file;
  ASSERT_EQ(parsed.packets.size(), 1u);
  EXPECT_EQ(parsed.packets[0].ts_micros, ts);
}

}  // namespace
}  // namespace dm::net
