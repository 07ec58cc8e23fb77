#include "graph/centrality.h"

namespace dm::graph {

std::vector<double> degree_centrality(const Adjacency& adj) {
  const std::size_t n = adj.size();
  std::vector<double> c(n, 0.0);
  if (n < 2) return c;
  const double scale = 1.0 / static_cast<double>(n - 1);
  for (std::size_t v = 0; v < n; ++v) {
    c[v] = static_cast<double>(adj[v].size()) * scale;
  }
  return c;
}

}  // namespace dm::graph
