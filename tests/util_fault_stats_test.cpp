#include "util/fault_stats.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "util/expected.h"

namespace dm::util {
namespace {

TEST(DecodeErrorTest, ToStringNamesLayerCodeOffsetAndReason) {
  const DecodeError error{DecodeErrorCode::kPcapTruncatedRecord, 1534,
                          "record cut short"};
  EXPECT_EQ(error.to_string(), "pcap/truncated-record @1534: record cut short");
}

TEST(ExpectedTest, HoldsValueOrError) {
  Expected<int> ok(42);
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(*ok, 42);
  EXPECT_EQ(ok.value_or(-1), 42);

  Expected<int> bad(DecodeError{DecodeErrorCode::kHttpBadChunk, 7, "bad size"});
  ASSERT_FALSE(bad);
  EXPECT_EQ(bad.error().code, DecodeErrorCode::kHttpBadChunk);
  EXPECT_EQ(bad.value_or(-1), -1);
}

TEST(FaultStatsTest, CountsPerCodeAndInTotal) {
  FaultStats stats;
  EXPECT_EQ(stats.total(), 0u);
  stats.record(DecodeErrorCode::kPcapBadMagic);
  stats.record(DecodeErrorCode::kHttpBadChunk);
  stats.record(DecodeErrorCode::kHttpBadChunk);
  EXPECT_EQ(stats.count(DecodeErrorCode::kPcapBadMagic), 1u);
  EXPECT_EQ(stats.count(DecodeErrorCode::kHttpBadChunk), 2u);
  EXPECT_EQ(stats.total(), 3u);
}

TEST(FaultStatsTest, SnapshotSumsAndSummarizes) {
  FaultStats stats;
  EXPECT_EQ(stats.snapshot().summary(), "none");
  stats.record(DecodeErrorCode::kTcpPendingOverflow);
  stats.record(DecodeErrorCode::kTcpPendingOverflow);
  auto a = stats.snapshot();
  EXPECT_EQ(a.count(DecodeErrorCode::kTcpPendingOverflow), 2u);
  EXPECT_NE(a.summary().find("pending-overflow=2"), std::string::npos);
  EXPECT_EQ(a.total(), 2u);
}

TEST(FaultStatsTest, ConcurrentRecordingLosesNothing) {
  FaultStats stats;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&stats] {
      for (int i = 0; i < kPerThread; ++i) {
        stats.record(DecodeErrorCode::kFrameUndecodable);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(stats.count(DecodeErrorCode::kFrameUndecodable),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

}  // namespace
}  // namespace dm::util
