#include "graph/metrics.h"

#include "graph/centrality.h"
#include "graph/connectivity.h"
#include "graph/pagerank.h"
#include "graph/shortest_paths.h"

namespace dm::graph {
namespace {

template <typename T>
double mean_of(const std::vector<T>& xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (T x : xs) s += static_cast<double>(x);
  return s / static_cast<double>(xs.size());
}

}  // namespace

GraphMetrics compute_metrics(const Digraph& g, const MetricsOptions& options) {
  GraphMetrics m;
  const std::size_t n = g.node_count();
  m.order = n;
  m.size = g.edge_count();
  if (n == 0) return m;

  std::size_t degree_sum = 0;
  std::size_t in_sum = 0;
  std::size_t out_sum = 0;
  for (NodeId v = 0; v < n; ++v) {
    degree_sum += g.degree(v);
    in_sum += g.in_degree(v);
    out_sum += g.out_degree(v);
  }
  m.volume = degree_sum;
  m.avg_degree = static_cast<double>(degree_sum) / static_cast<double>(n);
  m.avg_in_degree = static_cast<double>(in_sum) / static_cast<double>(n);
  m.avg_out_degree = static_cast<double>(out_sum) / static_cast<double>(n);

  const auto directed = g.directed_adjacency();
  m.reciprocity = reciprocity(directed);
  std::size_t simple_edges = 0;
  for (const auto& nbrs : directed) simple_edges += nbrs.size();
  if (n > 1) {
    m.density = static_cast<double>(simple_edges) /
                (static_cast<double>(n) * static_cast<double>(n - 1));
  }

  const auto undirected = g.undirected_adjacency();
  const auto paths = path_metrics(undirected, options.knn_hops);
  m.diameter = paths.diameter;
  m.avg_degree_centrality = mean_of(degree_centrality(undirected));
  m.avg_closeness_centrality = mean_of(paths.closeness);
  m.avg_betweenness_centrality = mean_of(paths.betweenness);
  m.avg_load_centrality = mean_of(paths.load);

  dm::util::Rng rng(options.sample_seed);
  m.avg_node_connectivity =
      average_node_connectivity(undirected, rng, options.connectivity_max_pairs);

  m.avg_clustering_coefficient = average_clustering(undirected);
  m.avg_neighbor_degree = mean_of(average_neighbor_degrees(undirected));

  const auto adc = average_degree_connectivity(undirected);
  if (!adc.empty()) {
    double s = 0.0;
    for (const auto& [k, v] : adc) s += v;
    m.avg_degree_connectivity = s / static_cast<double>(adc.size());
  }

  m.avg_k_nearest_neighbors = mean_of(paths.reach);
  m.avg_pagerank = mean_of(pagerank(directed));
  return m;
}

}  // namespace dm::graph
