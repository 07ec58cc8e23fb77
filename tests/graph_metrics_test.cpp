#include "graph/metrics.h"

#include <gtest/gtest.h>

#include "malloc_probe.h"

#ifdef DM_GLIBC_MALLOC
#include <atomic>
#include <cstdlib>
#include <new>

namespace {
/// Calls of the replaceable operator new made by this test binary.
std::atomic<std::size_t> g_news{0};
}  // namespace

void* operator new(std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace dm::graph {
namespace {

TEST(GraphMetricsTest, EmptyGraphAllZero) {
  const auto m = compute_metrics(Digraph{});
  EXPECT_EQ(m.order, 0u);
  EXPECT_EQ(m.size, 0u);
  EXPECT_EQ(m.volume, 0u);
  EXPECT_EQ(m.density, 0.0);
}

TEST(GraphMetricsTest, TriangleBasics) {
  Digraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  const auto m = compute_metrics(g);
  EXPECT_EQ(m.order, 3u);
  EXPECT_EQ(m.size, 3u);
  EXPECT_EQ(m.volume, 6u);  // sum of degrees = 2m
  EXPECT_DOUBLE_EQ(m.avg_degree, 2.0);
  EXPECT_DOUBLE_EQ(m.avg_in_degree, 1.0);
  EXPECT_DOUBLE_EQ(m.avg_out_degree, 1.0);
  EXPECT_DOUBLE_EQ(m.density, 0.5);  // 3 simple edges / (3*2)
  EXPECT_EQ(m.diameter, 1u);
  EXPECT_DOUBLE_EQ(m.avg_clustering_coefficient, 1.0);
  EXPECT_EQ(m.reciprocity, 0.0);
  EXPECT_NEAR(m.avg_pagerank, 1.0 / 3.0, 1e-9);
}

TEST(GraphMetricsTest, MultiEdgesCountInSizeVolumeNotDensity) {
  Digraph g(2);
  g.add_edge(0, 1);
  g.add_edge(0, 1);
  g.add_edge(0, 1);
  const auto m = compute_metrics(g);
  EXPECT_EQ(m.size, 3u);
  EXPECT_EQ(m.volume, 6u);
  EXPECT_DOUBLE_EQ(m.density, 0.5);  // one simple edge over 2 possible
}

TEST(GraphMetricsTest, StarMetrics) {
  Digraph g(5);  // hub 0 with 4 leaves
  for (NodeId leaf = 1; leaf < 5; ++leaf) g.add_edge(0, leaf);
  const auto m = compute_metrics(g);
  EXPECT_EQ(m.diameter, 2u);
  EXPECT_NEAR(m.avg_betweenness_centrality, 1.0 / 5.0, 1e-12);  // hub=1, rest 0
  EXPECT_DOUBLE_EQ(m.avg_clustering_coefficient, 0.0);
  EXPECT_DOUBLE_EQ(m.avg_node_connectivity, 1.0);  // tree
}

TEST(GraphMetricsTest, DeterministicUnderSeededSampling) {
  // A graph large enough to trigger connectivity sampling.
  Digraph g(80);
  for (NodeId v = 0; v + 1 < 80; ++v) g.add_edge(v, v + 1);
  for (NodeId v = 0; v + 7 < 80; v += 7) g.add_edge(v, v + 7);
  MetricsOptions options;
  options.connectivity_max_pairs = 100;
  const auto m1 = compute_metrics(g, options);
  const auto m2 = compute_metrics(g, options);
  EXPECT_DOUBLE_EQ(m1.avg_node_connectivity, m2.avg_node_connectivity);
}

TEST(GraphMetricsTest, ReciprocityDetected) {
  Digraph g(2);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  const auto m = compute_metrics(g);
  EXPECT_DOUBLE_EQ(m.reciprocity, 1.0);
}

#ifndef DM_GLIBC_MALLOC
TEST(GraphMetricsCostTest, AllocationsDoNotGrowWithSampledPairs) {
  GTEST_SKIP() << "counts operator new only over glibc's malloc";
}
#else
TEST(GraphMetricsCostTest, AllocationsDoNotGrowWithSampledPairs) {
  // The shape of a hostile session's WCG: a hub that reached 500 hosts, a
  // short redirect chain off one of them, and a few chords between hosts.
  // Its 127,765 node pairs put connectivity on its sampled branch at both
  // budgets, so a per-pair allocation would show as a gap between them.
  Digraph g(506);
  for (NodeId leaf = 1; leaf <= 500; ++leaf) g.add_edge(0, leaf);
  for (NodeId v = 500; v < 505; ++v) g.add_edge(v, v + 1);
  for (NodeId v = 10; v <= 490; v += 10) g.add_edge(v, v + 1);
  auto allocations = [&g](std::size_t pairs) {
    MetricsOptions options;
    options.connectivity_max_pairs = pairs;
    const std::size_t before = g_news.load();
    const auto m = compute_metrics(g, options);
    const std::size_t after = g_news.load();
    EXPECT_GT(m.avg_node_connectivity, 0.0);
    return after - before;
  };
  const std::size_t at_500 = allocations(500);
  const std::size_t at_2000 = allocations(2000);
  EXPECT_GT(at_500, 0u);
  EXPECT_EQ(at_500, at_2000);
}
#endif

}  // namespace
}  // namespace dm::graph
