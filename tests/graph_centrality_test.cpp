#include "graph/centrality.h"

#include <gtest/gtest.h>

#include <numeric>

namespace dm::graph {
namespace {

Adjacency undirected(std::size_t n,
                     std::initializer_list<std::pair<NodeId, NodeId>> edges) {
  Adjacency adj(n);
  for (auto [u, v] : edges) {
    adj[u].push_back(v);
    adj[v].push_back(u);
  }
  for (auto& nbrs : adj) std::sort(nbrs.begin(), nbrs.end());
  return adj;
}

Adjacency star(std::size_t leaves) {
  Adjacency adj(leaves + 1);
  for (NodeId leaf = 1; leaf <= leaves; ++leaf) {
    adj[0].push_back(leaf);
    adj[leaf].push_back(0);
  }
  return adj;
}

TEST(DegreeCentralityTest, Star) {
  const auto c = degree_centrality(star(4));
  EXPECT_DOUBLE_EQ(c[0], 1.0);  // hub connects to all 4 of n-1 = 4
  for (NodeId leaf = 1; leaf <= 4; ++leaf) EXPECT_DOUBLE_EQ(c[leaf], 0.25);
}

TEST(DegreeCentralityTest, TinyGraphsAreZero) {
  EXPECT_TRUE(degree_centrality(Adjacency{}).empty());
  EXPECT_EQ(degree_centrality(Adjacency(1))[0], 0.0);
}

TEST(ClosenessCentralityTest, PathGraphCenterHighest) {
  const auto adj = undirected(3, {{0, 1}, {1, 2}});
  const auto c = path_metrics(adj).closeness;
  // Middle node: distances {1,1}; C = 2/2 = 1. Ends: {1,2}; C = 2/3.
  EXPECT_DOUBLE_EQ(c[1], 1.0);
  EXPECT_NEAR(c[0], 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(c[2], 2.0 / 3.0, 1e-12);
}

TEST(ClosenessCentralityTest, DisconnectedUsesWassermanFaust) {
  Adjacency adj(4);
  adj[0].push_back(1);
  adj[1].push_back(0);
  // nodes 2, 3 isolated
  const auto c = path_metrics(adj).closeness;
  // Node 0 reaches one node at distance 1: C = (1/1) * (1/3).
  EXPECT_NEAR(c[0], 1.0 / 3.0, 1e-12);
  EXPECT_EQ(c[2], 0.0);
}

TEST(BetweennessCentralityTest, PathGraphMiddle) {
  const auto adj = undirected(3, {{0, 1}, {1, 2}});
  const auto bc = path_metrics(adj).betweenness;
  // Only the 0-2 pair routes through 1; normalized by (n-1)(n-2) = 2
  // with both orderings counted -> 1.0.
  EXPECT_DOUBLE_EQ(bc[1], 1.0);
  EXPECT_DOUBLE_EQ(bc[0], 0.0);
  EXPECT_DOUBLE_EQ(bc[2], 0.0);
}

TEST(BetweennessCentralityTest, StarHub) {
  const auto bc = path_metrics(star(4)).betweenness;
  EXPECT_DOUBLE_EQ(bc[0], 1.0);  // all leaf pairs route via hub
  for (NodeId leaf = 1; leaf <= 4; ++leaf) EXPECT_DOUBLE_EQ(bc[leaf], 0.0);
}

TEST(BetweennessCentralityTest, CycleSplitsEvenly) {
  const auto adj = undirected(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  const auto bc = path_metrics(adj).betweenness;
  // Symmetric graph: all nodes equal; opposite pairs have two equal paths.
  for (NodeId v = 0; v < 4; ++v) EXPECT_NEAR(bc[v], bc[0], 1e-12);
  EXPECT_GT(bc[0], 0.0);
}

TEST(BetweennessCentralityTest, TinyGraphZero) {
  const auto bc = path_metrics(undirected(2, {{0, 1}})).betweenness;
  EXPECT_DOUBLE_EQ(bc[0], 0.0);
  EXPECT_DOUBLE_EQ(bc[1], 0.0);
}

TEST(LoadCentralityTest, MatchesBetweennessOnTrees) {
  // On a tree all shortest paths are unique, so load == betweenness.
  const auto adj = undirected(6, {{0, 1}, {1, 2}, {1, 3}, {3, 4}, {3, 5}});
  const auto lc = path_metrics(adj).load;
  const auto bc = path_metrics(adj).betweenness;
  for (NodeId v = 0; v < 6; ++v) EXPECT_NEAR(lc[v], bc[v], 1e-9) << "node " << v;
}

TEST(LoadCentralityTest, StarHub) {
  const auto lc = path_metrics(star(5)).load;
  EXPECT_NEAR(lc[0], 1.0, 1e-12);
  for (NodeId leaf = 1; leaf <= 5; ++leaf) EXPECT_NEAR(lc[leaf], 0.0, 1e-12);
}

TEST(LoadCentralityTest, NonNegative) {
  const auto adj =
      undirected(5, {{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 4}, {3, 4}});
  for (double x : path_metrics(adj).load) EXPECT_GE(x, 0.0);
}

class CentralityNormalizationTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CentralityNormalizationTest, BetweennessBoundedByOne) {
  // Star hubs achieve the maximum normalized betweenness of exactly 1.
  const auto bc = path_metrics(star(GetParam())).betweenness;
  EXPECT_NEAR(bc[0], 1.0, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(StarSizes, CentralityNormalizationTest,
                         ::testing::Values(2, 3, 5, 8, 13, 21));

}  // namespace
}  // namespace dm::graph
