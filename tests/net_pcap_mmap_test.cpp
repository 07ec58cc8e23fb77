// Differential fence for the capture file reader (DESIGN.md §15): the
// reference is decode_pcap_view over the same bytes held in memory; the
// decode of the file through MappedPcap must agree with it byte for byte
// on every input class — clean captures, truncated tails, fatal headers,
// quarantined records, an empty file — and the file reader's transaction
// stream must equal in-memory reconstruction of the same bytes.  Both
// decode the same way, so a divergence here means the mapping, the read
// of what cannot be mapped, or a lifetime bug.  The file reader's error
// contract and a capture read through a pipe are fenced here too.  (In the
// test names, the "owning decode" is the decode of the buffer the test
// owns.)
#include "net/pcap_mmap.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "http/transaction_stream.h"
#include "net/pcap.h"
#include "pipe_file.h"
#include "synth/families.h"
#include "synth/generator.h"
#include "synth/pcap_export.h"
#include "util/expected.h"
#include "util/fault_stats.h"

namespace {

using dm::net::MappedFile;
using dm::net::MappedPcap;
using dm::net::PcapDecodeOptions;

/// RAII temp file holding `bytes`.
class TempCapture {
 public:
  explicit TempCapture(const std::vector<std::uint8_t>& bytes,
                       const std::string& tag) {
    path_ = (std::filesystem::temp_directory_path() /
             ("net_pcap_mmap_test_" + tag + ".pcap"))
                .string();
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  ~TempCapture() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::vector<std::uint8_t> episode_capture_bytes(std::uint64_t seed) {
  dm::synth::TraceGenerator gen(seed);
  const auto episode =
      gen.infection(dm::synth::exploit_kit_families().front());
  return dm::net::write_pcap(dm::synth::episode_to_pcap(episode));
}

/// Every field the detector reads, in stream order.
void expect_same_transactions(
    const std::vector<dm::http::HttpTransaction>& want,
    const std::vector<dm::http::HttpTransaction>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].client_host, got[i].client_host) << i;
    EXPECT_EQ(want[i].server_host, got[i].server_host) << i;
    EXPECT_EQ(want[i].request.uri, got[i].request.uri) << i;
    EXPECT_EQ(want[i].request.ts_micros, got[i].request.ts_micros) << i;
    EXPECT_EQ(want[i].request.body, got[i].request.body) << i;
    ASSERT_EQ(want[i].response.has_value(), got[i].response.has_value()) << i;
    if (want[i].response) {
      EXPECT_EQ(want[i].response->status_code, got[i].response->status_code)
          << i;
      EXPECT_EQ(want[i].response->body, got[i].response->body) << i;
    }
  }
}

/// The slice lies inside `buffer`.
bool points_into(std::span<const std::uint8_t> slice,
                 std::span<const std::uint8_t> buffer) {
  return slice.empty() ||
         (slice.data() >= buffer.data() &&
          slice.data() + slice.size() <= buffer.data() + buffer.size());
}

/// The whole differential: in-memory decode of `bytes` vs mapped decode of
/// the same bytes from a file.  Checks flags, errors, packets, and
/// quarantine.
void expect_equivalent(const std::vector<std::uint8_t>& bytes,
                       const std::string& tag,
                       const PcapDecodeOptions& options = {}) {
  const auto in_memory = dm::net::decode_pcap_view(bytes, options);
  const TempCapture file(bytes, tag);
  const MappedPcap mapped(file.path(), options);
  const auto& view = mapped.result();

  EXPECT_EQ(in_memory.fatal, view.fatal) << tag;
  EXPECT_EQ(in_memory.truncated_tail, view.truncated_tail) << tag;
  EXPECT_EQ(in_memory.file.link_type, view.file.link_type) << tag;

  ASSERT_EQ(in_memory.errors.size(), view.errors.size()) << tag;
  for (std::size_t i = 0; i < in_memory.errors.size(); ++i) {
    EXPECT_EQ(in_memory.errors[i].code, view.errors[i].code) << tag << " #" << i;
    EXPECT_EQ(in_memory.errors[i].offset, view.errors[i].offset)
        << tag << " #" << i;
  }

  // Zero-copy means ALIAS, not equal bytes: every slice must point into
  // the mapping itself.
  const auto mapping = mapped.mapping().bytes();
  const auto expect_same_records =
      [&](const std::vector<dm::net::PcapPacketView>& want,
          const std::vector<dm::net::PcapPacketView>& got, const char* what) {
        ASSERT_EQ(want.size(), got.size()) << tag << " " << what;
        for (std::size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(want[i].ts_micros, got[i].ts_micros)
              << tag << " " << what << " " << i;
          EXPECT_TRUE(std::ranges::equal(want[i].data, got[i].data))
              << tag << " " << what << " " << i;
          EXPECT_TRUE(points_into(got[i].data, mapping))
              << tag << " " << what << " " << i;
        }
      };
  expect_same_records(in_memory.file.packets, view.file.packets, "packet");
  expect_same_records(in_memory.quarantined, view.quarantined, "quarantined");
}

TEST(PcapMmapTest, CleanCaptureMatchesOwningDecode) {
  expect_equivalent(episode_capture_bytes(7), "clean");
}

TEST(PcapMmapTest, TruncatedTailMatchesOwningDecode) {
  auto bytes = episode_capture_bytes(11);
  ASSERT_GT(bytes.size(), 40u);
  bytes.resize(bytes.size() - 7);  // cut mid-record
  expect_equivalent(bytes, "truncated");
}

TEST(PcapMmapTest, FatalHeaderMatchesOwningDecode) {
  std::vector<std::uint8_t> garbage(64, 0xAB);  // no pcap magic
  expect_equivalent(garbage, "fatal");
}

TEST(PcapMmapTest, ShortHeaderMatchesOwningDecode) {
  std::vector<std::uint8_t> stub = {0xd4, 0xc3, 0xb2, 0xa1, 0x02};
  expect_equivalent(stub, "short_header");
}

TEST(PcapMmapTest, QuarantinedRecordMatchesOwningDecode) {
  auto bytes = episode_capture_bytes(13);
  ASSERT_GT(bytes.size(), 24u + 16u);
  // Corrupt the first record's incl_len into an unaddressable length: the
  // record is quarantined and iteration stops, identically on both paths.
  bytes[24 + 8] = 0xFF;
  bytes[24 + 9] = 0xFF;
  bytes[24 + 10] = 0xFF;
  bytes[24 + 11] = 0x7F;
  PcapDecodeOptions keep;
  keep.keep_quarantined = true;
  expect_equivalent(bytes, "quarantined", keep);
}

TEST(PcapMmapTest, EmptyFileMatchesOwningDecode) {
  expect_equivalent({}, "empty");
}

TEST(PcapMmapTest, TransactionsIdenticalAcrossPaths) {
  const auto bytes = episode_capture_bytes(17);
  const TempCapture file(bytes, "txns");
  const auto in_memory =
      dm::http::transactions_from_pcap(dm::net::decode_pcap_view(bytes).file);
  ASSERT_FALSE(in_memory.empty());
  expect_same_transactions(in_memory,
                           dm::http::transactions_from_pcap_file(file.path()));
}

TEST(PcapMmapTest, PipeIsReadToItsEnd) {
  // fstat gives a pipe a size of 0, so there is nothing to map: the reader
  // must read it to its end, not decode an empty capture.  Three episodes
  // make the capture larger than one pipe buffer (64 KiB), so the writer
  // blocks until the reader drains it.
  std::vector<std::uint8_t> bytes;
  {
    dm::net::PcapFile merged;
    dm::synth::TraceGenerator gen(31);
    for (int i = 0; i < 3; ++i) {
      auto pcap = dm::synth::episode_to_pcap(
          gen.infection(dm::synth::exploit_kit_families()[i]));
      for (auto& pkt : pcap.packets) merged.packets.push_back(std::move(pkt));
    }
    bytes = dm::net::write_pcap(merged);
  }
  ASSERT_GT(bytes.size(), 64u * 1024);
  {
    const dm::pipetest::PipeFile pipe(bytes);
    const MappedFile mapping(pipe.path());
    EXPECT_FALSE(mapping.mapped());
    EXPECT_TRUE(std::ranges::equal(mapping.bytes(), bytes));
  }
  const TempCapture file(bytes, "pipe");
  const auto from_file = dm::http::transactions_from_pcap_file(file.path());
  ASSERT_FALSE(from_file.empty());
  const dm::pipetest::PipeFile pipe(bytes);
  dm::util::FaultStats faults;
  const auto from_pipe =
      dm::http::transactions_from_pcap_file(pipe.path(), &faults);
  EXPECT_EQ(faults.total(), 0u) << faults.snapshot().summary();
  expect_same_transactions(from_file, from_pipe);
}

TEST(PcapMmapTest, FileReaderKeepsItsErrorContract) {
  using dm::http::transactions_from_pcap_file;
  using dm::util::DecodeErrorCode;
  // An I/O error throws, with or without fault accounting.
  const std::string missing = "/nonexistent/net_pcap_mmap_test.pcap";
  dm::util::FaultStats io_faults;
  EXPECT_THROW(transactions_from_pcap_file(missing), std::runtime_error);
  EXPECT_THROW(transactions_from_pcap_file(missing, &io_faults),
               std::runtime_error);

  // An unusable global header throws without `faults` and is counted with
  // it, the stream then empty.
  const TempCapture bad_magic(std::vector<std::uint8_t>(64, 0xAB), "bad_magic");
  EXPECT_THROW(transactions_from_pcap_file(bad_magic.path()), std::runtime_error);
  dm::util::FaultStats faults;
  EXPECT_TRUE(transactions_from_pcap_file(bad_magic.path(), &faults).empty());
  EXPECT_EQ(faults.count(DecodeErrorCode::kPcapBadMagic), 1u);
  EXPECT_EQ(faults.total(), 1u);
  const TempCapture empty({}, "empty_reader");
  EXPECT_THROW(transactions_from_pcap_file(empty.path()), std::runtime_error);

  // Every other fault is quarantined: a cut tail keeps the prefix's
  // transactions, with or without `faults`.
  auto cut = episode_capture_bytes(37);
  cut.resize(cut.size() - 7);
  const TempCapture truncated(cut, "cut_tail");
  dm::util::FaultStats cut_faults;
  const auto salvaged = transactions_from_pcap_file(truncated.path());
  EXPECT_FALSE(salvaged.empty());
  EXPECT_EQ(transactions_from_pcap_file(truncated.path(), &cut_faults).size(),
            salvaged.size());
  EXPECT_EQ(cut_faults.count(DecodeErrorCode::kPcapTruncatedRecord), 1u);
}

TEST(PcapMmapTest, MappedFileReportsWholeFile) {
  const auto bytes = episode_capture_bytes(19);
  const TempCapture file(bytes, "whole");
  const MappedFile mapping(file.path());
  EXPECT_TRUE(mapping.mapped());
  ASSERT_EQ(mapping.size(), bytes.size());
  EXPECT_EQ(0, std::memcmp(mapping.bytes().data(), bytes.data(), bytes.size()));
}

TEST(PcapMmapTest, MappedFileMoveKeepsBytesValid) {
  const auto bytes = episode_capture_bytes(23);
  const TempCapture file(bytes, "move");
  MappedFile first(file.path());
  const MappedFile second(std::move(first));
  ASSERT_EQ(second.size(), bytes.size());
  EXPECT_EQ(0, std::memcmp(second.bytes().data(), bytes.data(), bytes.size()));
}

TEST(PcapMmapTest, MissingFileThrows) {
  EXPECT_THROW(MappedFile("/nonexistent/net_pcap_mmap_test.pcap"),
               std::runtime_error);
  EXPECT_THROW(MappedPcap("/nonexistent/net_pcap_mmap_test.pcap"),
               std::runtime_error);
}

TEST(PcapMmapTest, FaultStatsAgreeAcrossPaths) {
  auto bytes = episode_capture_bytes(29);
  bytes.resize(bytes.size() - 5);
  dm::util::FaultStats in_memory_faults;
  dm::util::FaultStats mapped_faults;
  (void)dm::net::decode_pcap_view(bytes, {}, &in_memory_faults);
  const TempCapture file(bytes, "faults");
  const MappedPcap mapped(file.path(), {}, &mapped_faults);
  const auto a = in_memory_faults.snapshot();
  const auto b = mapped_faults.snapshot();
  for (std::size_t i = 0; i < dm::util::kDecodeErrorCodeCount; ++i) {
    EXPECT_EQ(a.counts[i], b.counts[i]) << dm::util::decode_error_name(
        static_cast<dm::util::DecodeErrorCode>(i));
  }
}

}  // namespace
