#include "graph/connectivity.h"

#include <gtest/gtest.h>

#include "graph/digraph.h"

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

Adjacency complete(std::size_t n) {
  Adjacency adj(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      if (u != v) adj[u].push_back(v);
    }
  }
  return adj;
}

TEST(LocalNodeConnectivityTest, PathIsOne) {
  const auto adj = undirected(4, {{0, 1}, {1, 2}, {2, 3}});
  EXPECT_EQ(local_node_connectivity(adj, 0, 3), 1u);
}

TEST(LocalNodeConnectivityTest, DisconnectedIsZero) {
  Adjacency adj(3);
  adj[0].push_back(1);
  adj[1].push_back(0);
  EXPECT_EQ(local_node_connectivity(adj, 0, 2), 0u);
}

TEST(LocalNodeConnectivityTest, CycleIsTwo) {
  const auto adj = undirected(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}});
  EXPECT_EQ(local_node_connectivity(adj, 0, 2), 2u);
}

TEST(LocalNodeConnectivityTest, CompleteGraphIsNMinusOne) {
  const auto adj = complete(5);
  EXPECT_EQ(local_node_connectivity(adj, 0, 4), 4u);
}

TEST(LocalNodeConnectivityTest, AdjacentNodesDiamond) {
  // 0-1 adjacent plus two disjoint indirect paths 0-2-1 and 0-3-1.
  const auto adj = undirected(4, {{0, 1}, {0, 2}, {2, 1}, {0, 3}, {3, 1}});
  EXPECT_EQ(local_node_connectivity(adj, 0, 1), 3u);
}

TEST(AverageNodeConnectivityTest, CompleteGraphExact) {
  dm::util::Rng rng(1);
  EXPECT_DOUBLE_EQ(average_node_connectivity(complete(4), rng), 3.0);
}

TEST(AverageNodeConnectivityTest, PathGraph) {
  dm::util::Rng rng(1);
  const auto adj = undirected(4, {{0, 1}, {1, 2}, {2, 3}});
  EXPECT_DOUBLE_EQ(average_node_connectivity(adj, rng), 1.0);
}

TEST(AverageNodeConnectivityTest, SamplingStaysInRange) {
  // Force the sampling path with a small pair budget on a cycle: every
  // pair's connectivity is exactly 2, so any sample must average 2.
  Adjacency adj = undirected(
      12, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7},
           {7, 8}, {8, 9}, {9, 10}, {10, 11}, {11, 0}});
  dm::util::Rng rng(2);
  EXPECT_DOUBLE_EQ(average_node_connectivity(adj, rng, 10), 2.0);
}

TEST(ClusteringTest, TriangleIsOne) {
  const auto adj = undirected(3, {{0, 1}, {1, 2}, {2, 0}});
  EXPECT_DOUBLE_EQ(average_clustering(adj), 1.0);
}

TEST(ClusteringTest, StarIsZero) {
  const auto adj = undirected(4, {{0, 1}, {0, 2}, {0, 3}});
  EXPECT_DOUBLE_EQ(average_clustering(adj), 0.0);
}

TEST(ClusteringTest, TriangleWithPendant) {
  const auto adj = undirected(4, {{0, 1}, {1, 2}, {2, 0}, {0, 3}});
  const auto cc = clustering_coefficients(adj);
  // Node 0 has neighbors {1,2,3}; one of three possible links exists.
  EXPECT_NEAR(cc[0], 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(cc[1], 1.0);
  EXPECT_DOUBLE_EQ(cc[3], 0.0);  // degree 1
}

TEST(NeighborDegreeTest, Star) {
  const auto adj = undirected(4, {{0, 1}, {0, 2}, {0, 3}});
  const auto and_ = average_neighbor_degrees(adj);
  EXPECT_DOUBLE_EQ(and_[0], 1.0);  // hub's neighbors all have degree 1
  EXPECT_DOUBLE_EQ(and_[1], 3.0);  // leaves see the hub
}

TEST(DegreeConnectivityTest, StarHasTwoClasses) {
  const auto adj = undirected(4, {{0, 1}, {0, 2}, {0, 3}});
  const auto adc = average_degree_connectivity(adj);
  ASSERT_EQ(adc.size(), 2u);
  EXPECT_DOUBLE_EQ(adc.at(3), 1.0);  // the hub (degree 3) sees degree-1 nodes
  EXPECT_DOUBLE_EQ(adc.at(1), 3.0);  // leaves see degree 3
}

TEST(KNearestNeighborsTest, PathAtTwoHops) {
  const auto adj = undirected(4, {{0, 1}, {1, 2}, {2, 3}});
  // Within 2 hops: node0->{1,2}=2, node1->{0,2,3}=3, node2->3, node3->2.
  EXPECT_EQ(path_metrics(adj, 2).reach, (std::vector<std::uint32_t>{2, 3, 3, 2}));
}

TEST(ReciprocityTest, DirectedPairs) {
  Digraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  g.add_edge(1, 2);
  // 3 unique directed edges; 2 of them are reciprocated.
  EXPECT_NEAR(reciprocity(g.directed_adjacency()), 2.0 / 3.0, 1e-12);
}

TEST(ReciprocityTest, NoEdgesIsZero) {
  Digraph g(2);
  EXPECT_EQ(reciprocity(g.directed_adjacency()), 0.0);
}

TEST(ReciprocityTest, FullyMutualIsOne) {
  Digraph g(2);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  EXPECT_DOUBLE_EQ(reciprocity(g.directed_adjacency()), 1.0);
}

class CompleteConnectivityTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CompleteConnectivityTest, KnIsNMinusOne) {
  const std::size_t n = GetParam();
  const auto adj = complete(n);
  EXPECT_EQ(local_node_connectivity(adj, 0, static_cast<NodeId>(n - 1)),
            static_cast<std::uint32_t>(n - 1));
}

INSTANTIATE_TEST_SUITE_P(Sizes, CompleteConnectivityTest,
                         ::testing::Values(2, 3, 4, 6, 8));

}  // namespace
}  // namespace dm::graph
