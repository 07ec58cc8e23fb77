// Property-based tests over randomly generated graphs: structural
// invariants every metric must satisfy regardless of topology.
#include <gtest/gtest.h>

#include <algorithm>
#include <queue>

#include "graph/centrality.h"
#include "graph/connectivity.h"
#include "graph/metrics.h"
#include "graph/pagerank.h"
#include "graph/shortest_paths.h"
#include "util/rng.h"

namespace dm::graph {
namespace {

/// Random digraph: n nodes, expected out-degree d.
Digraph random_digraph(std::uint64_t seed, std::size_t n, double d) {
  dm::util::Rng rng(seed);
  Digraph g(n);
  const double p = n > 1 ? d / static_cast<double>(n - 1) : 0.0;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      if (u != v && rng.chance(p)) g.add_edge(u, v);
    }
  }
  // A few parallel edges to exercise multigraph handling.
  for (int i = 0; i < 3 && g.edge_count() > 0; ++i) {
    const auto e = g.edge(static_cast<EdgeId>(
        rng.uniform_int(0, static_cast<std::int64_t>(g.edge_count()) - 1)));
    g.add_edge(e.src, e.dst);
  }
  return g;
}

/// Reference node connectivity: a fresh vertex-split network per pair, and
/// for an adjacent pair a copy of the adjacency without the s-t edge.  This
/// is the per-pair construction the library used before it built one flow
/// network per graph.
class ReferenceFlowNetwork {
 public:
  ReferenceFlowNetwork(const Adjacency& adj, NodeId s, NodeId t) : s_(s), t_(t) {
    const std::size_t n = adj.size();
    head_.assign(2 * n, {});
    for (NodeId v = 0; v < n; ++v) {
      add_arc(2 * v, 2 * v + 1, (v == s || v == t) ? kInf : 1);
    }
    for (NodeId v = 0; v < n; ++v) {
      for (NodeId w : adj[v]) {
        if (v < w) {
          add_arc(2 * v + 1, 2 * w, kInf);
          add_arc(2 * w + 1, 2 * v, kInf);
        }
      }
    }
  }

  std::uint32_t max_flow(std::uint32_t limit) {
    std::uint32_t flow = 0;
    while (flow < limit && augment()) ++flow;
    return flow;
  }

 private:
  static constexpr int kInf = 1 << 29;

  struct Arc {
    std::uint32_t to;
    int cap;
    std::size_t rev;
  };

  void add_arc(std::uint32_t from, std::uint32_t to, int cap) {
    head_[from].push_back({to, cap, head_[to].size()});
    head_[to].push_back({from, 0, head_[from].size() - 1});
  }

  bool augment() {
    const std::uint32_t source = 2 * s_ + 1;
    const std::uint32_t sink = 2 * t_;
    std::vector<std::pair<std::uint32_t, std::size_t>> parent(head_.size(),
                                                              {~0u, 0});
    std::queue<std::uint32_t> q;
    parent[source] = {source, 0};
    q.push(source);
    while (!q.empty() && parent[sink].first == ~0u) {
      const std::uint32_t v = q.front();
      q.pop();
      for (std::size_t i = 0; i < head_[v].size(); ++i) {
        const Arc& a = head_[v][i];
        if (a.cap > 0 && parent[a.to].first == ~0u) {
          parent[a.to] = {v, i};
          q.push(a.to);
        }
      }
    }
    if (parent[sink].first == ~0u) return false;
    for (std::uint32_t v = sink; v != source;) {
      const auto [u, i] = parent[v];
      Arc& a = head_[u][i];
      a.cap -= 1;
      head_[a.to][a.rev].cap += 1;
      v = u;
    }
    return true;
  }

  NodeId s_;
  NodeId t_;
  std::vector<std::vector<Arc>> head_;
};

std::uint32_t reference_connectivity(const Adjacency& adj, NodeId s, NodeId t) {
  if (s == t || adj.size() < 2) return 0;
  if (!std::binary_search(adj[s].begin(), adj[s].end(), t)) {
    ReferenceFlowNetwork net(adj, s, t);
    return net.max_flow(static_cast<std::uint32_t>(
        std::min(adj[s].size(), adj[t].size())));
  }
  Adjacency reduced = adj;
  std::erase(reduced[s], t);
  std::erase(reduced[t], s);
  ReferenceFlowNetwork net(reduced, s, t);
  return 1 + net.max_flow(static_cast<std::uint32_t>(
                 std::min(reduced[s].size(), reduced[t].size())));
}

/// The library's pair schedule over reference_connectivity: every pair when
/// there are at most `max_pairs`, else `max_pairs` pairs drawn from `rng`.
double reference_average_connectivity(const Adjacency& adj, dm::util::Rng& rng,
                                      std::size_t max_pairs) {
  const std::size_t n = adj.size();
  if (n < 2) return 0.0;
  double sum = 0.0;
  std::size_t counted = 0;
  if (n * (n - 1) / 2 <= max_pairs) {
    for (NodeId s = 0; s < n; ++s) {
      for (NodeId t = s + 1; t < n; ++t) {
        sum += reference_connectivity(adj, s, t);
        ++counted;
      }
    }
  } else {
    while (counted < max_pairs) {
      const auto s = static_cast<NodeId>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      const auto t = static_cast<NodeId>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      if (s == t) continue;
      sum += reference_connectivity(adj, s, t);
      ++counted;
    }
  }
  return sum / static_cast<double>(counted);
}

/// Reference betweenness and load: a fresh shortest-path DAG with explicit
/// predecessor lists per source and per measure, as the library computed
/// them before path_metrics shared one DAG.  path_metrics must match them
/// bit for bit, which holds only while every floating-point sum keeps its
/// order.
struct ReferenceDag {
  std::vector<std::uint32_t> dist;
  std::vector<double> sigma;
  std::vector<std::vector<NodeId>> preds;
  std::vector<NodeId> order;
};

ReferenceDag reference_dag(const Adjacency& adj, NodeId source) {
  const std::size_t n = adj.size();
  ReferenceDag dag{std::vector<std::uint32_t>(n, kUnreachable),
                   std::vector<double>(n, 0.0),
                   std::vector<std::vector<NodeId>>(n), {}};
  std::queue<NodeId> frontier;
  dag.dist[source] = 0;
  dag.sigma[source] = 1.0;
  frontier.push(source);
  while (!frontier.empty()) {
    const NodeId v = frontier.front();
    frontier.pop();
    dag.order.push_back(v);
    for (NodeId w : adj[v]) {
      if (dag.dist[w] == kUnreachable) {
        dag.dist[w] = dag.dist[v] + 1;
        frontier.push(w);
      }
      if (dag.dist[w] == dag.dist[v] + 1) {
        dag.sigma[w] += dag.sigma[v];
        dag.preds[w].push_back(v);
      }
    }
  }
  return dag;
}

double reference_norm(std::size_t n) {
  return n < 3 ? 0.0
               : 1.0 / (static_cast<double>(n - 1) * static_cast<double>(n - 2));
}

std::vector<double> reference_betweenness(const Adjacency& adj) {
  const std::size_t n = adj.size();
  std::vector<double> bc(n, 0.0);
  const double norm = reference_norm(n);
  if (norm == 0.0) return bc;
  for (NodeId s = 0; s < n; ++s) {
    const auto dag = reference_dag(adj, s);
    std::vector<double> delta(n, 0.0);
    for (auto it = dag.order.rbegin(); it != dag.order.rend(); ++it) {
      const NodeId w = *it;
      for (NodeId v : dag.preds[w]) {
        delta[v] += dag.sigma[v] / dag.sigma[w] * (1.0 + delta[w]);
      }
      if (w != s) bc[w] += delta[w];
    }
  }
  for (double& x : bc) x *= norm;
  return bc;
}

std::vector<double> reference_load(const Adjacency& adj) {
  const std::size_t n = adj.size();
  std::vector<double> lc(n, 0.0);
  const double norm = reference_norm(n);
  if (norm == 0.0) return lc;
  for (NodeId s = 0; s < n; ++s) {
    const auto dag = reference_dag(adj, s);
    std::vector<double> load(n, 0.0);
    for (NodeId v = 0; v < n; ++v) {
      if (v != s && dag.dist[v] != kUnreachable) load[v] += 1.0;
    }
    for (auto it = dag.order.rbegin(); it != dag.order.rend(); ++it) {
      const NodeId w = *it;
      if (dag.preds[w].empty()) continue;
      const double share = load[w] / static_cast<double>(dag.preds[w].size());
      for (NodeId v : dag.preds[w]) load[v] += share;
    }
    for (NodeId v = 0; v < n; ++v) {
      if (v != s) lc[v] += load[v] - 1.0;
    }
  }
  for (double& x : lc) x = std::max(0.0, x) * norm;
  return lc;
}

class RandomGraphTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    graph_ = random_digraph(GetParam(), 24, 2.5);
    adj_ = graph_.undirected_adjacency();
  }
  Digraph graph_;
  Adjacency adj_;
};

TEST_P(RandomGraphTest, HandshakeLemma) {
  const auto m = compute_metrics(graph_);
  EXPECT_EQ(m.volume, 2 * m.size);  // sum of degrees = 2 * edges
}

TEST_P(RandomGraphTest, DegreeCentralityBounds) {
  for (double c : degree_centrality(adj_)) {
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0);
  }
}

TEST_P(RandomGraphTest, ClosenessCentralityBounds) {
  for (double c : path_metrics(adj_).closeness) {
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0 + 1e-12);
  }
}

TEST_P(RandomGraphTest, BetweennessNonNegativeAndBounded) {
  for (double c : path_metrics(adj_).betweenness) {
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0 + 1e-9);
  }
}

TEST_P(RandomGraphTest, LoadCentralityNonNegative) {
  for (double c : path_metrics(adj_).load) {
    EXPECT_GE(c, 0.0);
  }
}

TEST_P(RandomGraphTest, LoadEqualsBetweennessWhenPathsUnique) {
  // On any graph, load and betweenness agree on nodes where all shortest
  // paths are unique; globally they stay within the normalization bound.
  const auto lc = path_metrics(adj_).load;
  const auto bc = path_metrics(adj_).betweenness;
  for (std::size_t v = 0; v < lc.size(); ++v) {
    EXPECT_LT(std::abs(lc[v] - bc[v]), 0.5) << "wildly divergent at " << v;
  }
}

TEST_P(RandomGraphTest, DiameterBoundedByOrder) {
  EXPECT_LE(path_metrics(adj_).diameter, adj_.size() > 0 ? adj_.size() - 1 : 0);
}

TEST_P(RandomGraphTest, EccentricityNeverExceedsDiameter) {
  const auto paths = path_metrics(adj_);
  const auto d = paths.diameter;
  for (NodeId v = 0; v < adj_.size(); ++v) {
    EXPECT_LE(paths.eccentricity[v], d);
  }
}

TEST_P(RandomGraphTest, ClusteringCoefficientBounds) {
  for (double c : clustering_coefficients(adj_)) {
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0);
  }
}

TEST_P(RandomGraphTest, PageRankIsDistribution) {
  const auto pr = pagerank(graph_.directed_adjacency());
  double sum = 0.0;
  for (double x : pr) {
    EXPECT_GT(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum, 1.0, 1e-6);
}

TEST_P(RandomGraphTest, ReciprocityBounds) {
  const double r = reciprocity(graph_.directed_adjacency());
  EXPECT_GE(r, 0.0);
  EXPECT_LE(r, 1.0);
}

TEST_P(RandomGraphTest, LocalConnectivityBoundedByMinDegree) {
  dm::util::Rng rng(GetParam() ^ 1);
  for (int trial = 0; trial < 10; ++trial) {
    const auto s = static_cast<NodeId>(
        rng.uniform_int(0, static_cast<std::int64_t>(adj_.size()) - 1));
    const auto t = static_cast<NodeId>(
        rng.uniform_int(0, static_cast<std::int64_t>(adj_.size()) - 1));
    if (s == t) continue;
    const auto k = local_node_connectivity(adj_, s, t);
    EXPECT_LE(k, std::min(adj_[s].size(), adj_[t].size()) + 1);
    // Connectivity positive iff t reachable from s.
    const auto dist = bfs_distances(adj_, s);
    EXPECT_EQ(k > 0, dist[t] != kUnreachable);
  }
}

TEST_P(RandomGraphTest, ConnectivityZeroAcrossComponents) {
  const auto comps = connected_components(adj_);
  if (comps.count < 2) GTEST_SKIP() << "graph happens to be connected";
  NodeId a = kInvalidNode;
  NodeId b = kInvalidNode;
  for (NodeId v = 0; v < adj_.size(); ++v) {
    if (comps.component_of[v] == 0) a = v;
    if (comps.component_of[v] == 1) b = v;
  }
  ASSERT_NE(a, kInvalidNode);
  ASSERT_NE(b, kInvalidNode);
  EXPECT_EQ(local_node_connectivity(adj_, a, b), 0u);
}

TEST_P(RandomGraphTest, PathMetricsMatchPerMeasureReferenceBitForBit) {
  // The sparse 24-node graph, and a denser 40-node one whose many equal
  // shortest paths make the path counts and dependency sums order-sensitive.
  for (const Adjacency& adj :
       {adj_, random_digraph(GetParam(), 40, 6.0).undirected_adjacency()}) {
    const auto paths = path_metrics(adj);
    EXPECT_EQ(paths.betweenness, reference_betweenness(adj));
    EXPECT_EQ(paths.load, reference_load(adj));
  }
}

TEST_P(RandomGraphTest, LocalConnectivityMatchesPerPairReference) {
  std::size_t adjacent_pairs = 0;
  for (NodeId s = 0; s < adj_.size(); ++s) {
    adjacent_pairs += adj_[s].size();
    for (NodeId t = 0; t < adj_.size(); ++t) {
      EXPECT_EQ(local_node_connectivity(adj_, s, t),
                reference_connectivity(adj_, s, t))
          << "pair " << s << "-" << t;
    }
  }
  EXPECT_GT(adjacent_pairs, 0u);
}

TEST_P(RandomGraphTest, AverageConnectivityMatchesPerPairReference) {
  // 24 nodes: 276 pairs, all of them counted.
  dm::util::Rng rng(GetParam());
  dm::util::Rng reference_rng(GetParam());
  EXPECT_EQ(average_node_connectivity(adj_, rng),
            reference_average_connectivity(adj_, reference_rng, 2000));
}

TEST(GraphConnectivityTest, SampledAverageMatchesPerPairReference) {
  // 70 nodes: 2,415 pairs, over the 2,000-pair budget, so both sides draw
  // the same sample from equal seeds.
  for (std::uint64_t seed : {3u, 4u}) {
    const auto adj = random_digraph(seed, 70, 3.0).undirected_adjacency();
    dm::util::Rng rng(seed);
    dm::util::Rng reference_rng(seed);
    const double average = average_node_connectivity(adj, rng, 2000);
    EXPECT_EQ(average, reference_average_connectivity(adj, reference_rng, 2000));
    EXPECT_GT(average, 0.0);
    // Both drew the same number of values.
    EXPECT_EQ(rng.next_u64(), reference_rng.next_u64());
  }
}

TEST_P(RandomGraphTest, MetricsDeterministic) {
  const auto m1 = compute_metrics(graph_);
  const auto m2 = compute_metrics(graph_);
  EXPECT_EQ(m1.avg_betweenness_centrality, m2.avg_betweenness_centrality);
  EXPECT_EQ(m1.avg_node_connectivity, m2.avg_node_connectivity);
  EXPECT_EQ(m1.avg_pagerank, m2.avg_pagerank);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(GraphScalingTest, MetricsOnLargeSparseGraphComplete) {
  // Worst realistic WCG scale (the paper saw up to 404 nodes / 1778 edges).
  dm::util::Rng rng(99);
  Digraph g(404);
  for (NodeId v = 1; v < 404; ++v) {
    g.add_edge(static_cast<NodeId>(rng.uniform_int(0, v - 1)), v);
  }
  for (int i = 0; i < 1374; ++i) {
    const auto u = static_cast<NodeId>(rng.uniform_int(0, 403));
    const auto v = static_cast<NodeId>(rng.uniform_int(0, 403));
    if (u != v) g.add_edge(u, v);
  }
  MetricsOptions options;
  options.connectivity_max_pairs = 200;  // force the sampling path
  const auto m = compute_metrics(g, options);
  EXPECT_EQ(m.order, 404u);
  EXPECT_GT(m.size, 1500u);
  EXPECT_GT(m.avg_node_connectivity, 0.0);
  EXPECT_GT(m.diameter, 1u);
}

}  // namespace
}  // namespace dm::graph
