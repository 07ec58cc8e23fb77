#include "graph/shortest_paths.h"

#include <gtest/gtest.h>

namespace dm::graph {
namespace {

Adjacency path_graph(std::size_t n) {
  Adjacency adj(n);
  for (NodeId v = 0; v + 1 < n; ++v) {
    adj[v].push_back(v + 1);
    adj[v + 1].push_back(v);
  }
  return adj;
}

Adjacency star_graph(std::size_t leaves) {
  Adjacency adj(leaves + 1);
  for (NodeId leaf = 1; leaf <= leaves; ++leaf) {
    adj[0].push_back(leaf);
    adj[leaf].push_back(0);
  }
  return adj;
}

TEST(ShortestPathsTest, BfsDistancesOnPath) {
  const auto adj = path_graph(5);
  const auto dist = bfs_distances(adj, 0);
  for (NodeId v = 0; v < 5; ++v) EXPECT_EQ(dist[v], v);
}

TEST(ShortestPathsTest, BfsUnreachableMarked) {
  Adjacency adj(3);  // no edges
  const auto dist = bfs_distances(adj, 0);
  EXPECT_EQ(dist[0], 0u);
  EXPECT_EQ(dist[1], kUnreachable);
  EXPECT_EQ(dist[2], kUnreachable);
}

TEST(ShortestPathsTest, EccentricityOnPath) {
  const auto adj = path_graph(5);
  EXPECT_EQ(path_metrics(adj).eccentricity[0], 4u);
  EXPECT_EQ(path_metrics(adj).eccentricity[2], 2u);
}

TEST(ShortestPathsTest, EccentricityIgnoresUnreachable) {
  Adjacency adj(4);
  adj[0].push_back(1);
  adj[1].push_back(0);
  // 2, 3 isolated
  EXPECT_EQ(path_metrics(adj).eccentricity[0], 1u);
  EXPECT_EQ(path_metrics(adj).eccentricity[2], 0u);
}

TEST(ShortestPathsTest, DiameterOfPathAndStar) {
  EXPECT_EQ(path_metrics(path_graph(6)).diameter, 5u);
  EXPECT_EQ(path_metrics(star_graph(4)).diameter, 2u);
  EXPECT_EQ(path_metrics(Adjacency(1)).diameter, 0u);
  EXPECT_EQ(path_metrics(Adjacency{}).diameter, 0u);
}

TEST(ShortestPathsTest, ConnectedComponents) {
  Adjacency adj(5);
  adj[0].push_back(1);
  adj[1].push_back(0);
  adj[2].push_back(3);
  adj[3].push_back(2);
  const auto comps = connected_components(adj);
  EXPECT_EQ(comps.count, 3u);
  EXPECT_EQ(comps.component_of[0], comps.component_of[1]);
  EXPECT_EQ(comps.component_of[2], comps.component_of[3]);
  EXPECT_NE(comps.component_of[0], comps.component_of[2]);
  EXPECT_NE(comps.component_of[4], comps.component_of[0]);
}

TEST(ShortestPathsTest, NodesWithinRadius) {
  const auto adj = path_graph(6);
  EXPECT_EQ(path_metrics(adj, 1).reach[0], 1u);
  EXPECT_EQ(path_metrics(adj, 2).reach[0], 2u);
  EXPECT_EQ(path_metrics(adj, 2).reach[2], 4u);
  EXPECT_EQ(path_metrics(adj, 100).reach[0], 5u);
}

class PathDiameterTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PathDiameterTest, DiameterEqualsLengthMinusOne) {
  const std::size_t n = GetParam();
  EXPECT_EQ(path_metrics(path_graph(n)).diameter, n - 1);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PathDiameterTest,
                         ::testing::Values(2, 3, 5, 9, 17, 33));

}  // namespace
}  // namespace dm::graph
