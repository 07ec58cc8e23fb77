// The benchmark's own arithmetic: percentile selection, span self time and
// the clean-heap peak-RSS probe.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "measure.h"

namespace pipebench {
namespace {

TEST(Percentile, NearestRankOnSortedSample) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(percentile(v, 50), 50);
  EXPECT_EQ(percentile(v, 95), 95);
  EXPECT_EQ(percentile(v, 99), 99);
  EXPECT_EQ(percentile(v, 100), 100);
  EXPECT_EQ(percentile(v, 0), 1);
  EXPECT_EQ(percentile(std::vector<double>{}, 50), 0);
  EXPECT_EQ(median({3, 1, 2}), 2);
  EXPECT_EQ(median({4, 1, 2, 3}), 2.5);
}

TEST(Percentile, SupportNeedsTenSamplesBeyond) {
  // 39 verdicts (the edge workload) support only the median.
  EXPECT_EQ(samples_beyond(39, 50), 19u);
  EXPECT_EQ(samples_beyond(39, 95), 1u);
  EXPECT_TRUE(percentile_supported(39, 50));
  EXPECT_FALSE(percentile_supported(39, 95));
  EXPECT_EQ(highest_supported_percentile(39, default_percentile_ladder()), 50.0);
  // p95 needs 200 samples: rank 190 leaves exactly 10 beyond.
  EXPECT_FALSE(percentile_supported(199, 95));
  EXPECT_TRUE(percentile_supported(200, 95));
  EXPECT_EQ(highest_supported_percentile(200, default_percentile_ladder()), 95.0);
  // p99 needs 1000, p99.9 needs 10000.
  EXPECT_EQ(highest_supported_percentile(999, default_percentile_ladder()), 95.0);
  EXPECT_EQ(highest_supported_percentile(1000, default_percentile_ladder()), 99.0);
  EXPECT_EQ(highest_supported_percentile(50'000, default_percentile_ladder()), 99.9);
  EXPECT_FALSE(highest_supported_percentile(19, default_percentile_ladder()));
  EXPECT_FALSE(percentile_supported(0, 50));
}

Span span(std::int64_t start, std::int64_t end, std::int32_t parent) {
  return Span{"s", start, end, parent, 0};
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  const std::vector<Span> spans{
      span(0, 100, -1),  // root
      span(10, 40, 0),   // child
      span(30, 60, 0),   // overlaps the first child by 10
      span(70, 80, 0),   // disjoint
      span(35, 38, 2),   // grandchild: inside child 2, not root's business
  };
  const auto self = self_times_ns(spans);
  ASSERT_EQ(self.size(), 5u);
  EXPECT_EQ(self[0], 100 - (50 + 10));  // [10,60) and [70,80) covered
  EXPECT_EQ(self[1], 30);
  EXPECT_EQ(self[2], 30 - 3);
  EXPECT_EQ(self[3], 10);
  EXPECT_EQ(self[4], 3);
}

TEST(SelfTime, ChildrenAreClippedToTheParent) {
  const std::vector<Span> spans{span(100, 200, -1), span(50, 120, 0),
                                span(190, 260, 0), span(120, 190, 0)};
  const auto self = self_times_ns(spans);
  EXPECT_EQ(self[0], 0);  // fully covered after clipping
}

TEST(SelfTime, RecorderNestsUnderTheInnermostOpenSpan) {
  SpanRecorder rec;
  const auto root = rec.begin("root");
  const auto a = rec.begin("a");
  const auto b = rec.begin("b");
  rec.end(b);
  rec.end(a);
  const auto c = rec.begin("c");
  rec.end(c);
  rec.end(root);
  const auto& spans = rec.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, root);
  EXPECT_EQ(spans[2].parent, a);
  EXPECT_EQ(spans[3].parent, root);
  for (const auto& s : spans) EXPECT_LE(s.start_ns, s.end_ns);
  const auto self = self_times_ns(spans);
  std::int64_t sum = 0;
  for (const auto v : self) sum += v;
  EXPECT_EQ(sum, spans[0].end_ns - spans[0].start_ns);
}

/// Allocates `bytes` in small blocks, touches them, frees them.
double churn(std::size_t bytes) {
  constexpr std::size_t kBlock = 256;
  std::vector<std::unique_ptr<char[]>> blocks(bytes / kBlock);
  for (auto& b : blocks) {
    b.reset(new char[kBlock]);
    std::memset(b.get(), 1, kBlock);
  }
  return static_cast<double>(blocks.size());
}

TEST(PeakRss, CleanHeapSeesGrowthThatAFreedHeapWouldHide) {
  constexpr std::size_t kBytes = 64u << 20;
  // Leave the freed blocks resident in this process's heap, pinned below a
  // live allocation so free() cannot trim them away: the same allocation
  // repeated in this process would reuse them and read as no growth.
  churn(kBytes);
  auto pin = std::make_unique<char[]>(4096);
  std::memset(pin.get(), 1, 4096);

  const auto child = run_in_child([] { return churn(kBytes); });
  ASSERT_TRUE(child.has_value());
  EXPECT_EQ(child->value, static_cast<double>(kBytes / 256));
  // 64 MiB of 256-byte blocks, plus malloc headers and the pointer vector.
  EXPECT_GT(child->growth_mb, 0.9 * kBytes / 1e6);
  EXPECT_LT(child->growth_mb, 2.0 * kBytes / 1e6);
}

TEST(PeakRss, ReturnsTheChildsSummary) {
  struct Summary {
    double seconds;
    std::uint64_t count;
  };
  const auto child = run_in_child([] { return Summary{1.5, 42}; });
  ASSERT_TRUE(child.has_value());
  EXPECT_EQ(child->value.seconds, 1.5);
  EXPECT_EQ(child->value.count, 42u);
  EXPECT_GE(child->growth_mb, 0.0);
}

TEST(PeakRss, ReportsAFailingChild) {
  const auto child = run_in_child([]() -> double { throw 1; });
  EXPECT_FALSE(child.has_value());
}

}  // namespace
}  // namespace pipebench
