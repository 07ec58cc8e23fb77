// Degree centrality over the undirected simple view of a WCG (feature f16).
// Closeness, betweenness and load (f17-f19) come from path_metrics() in
// shortest_paths.h, which walks each source's shortest-path DAG once.
#pragma once

#include <vector>

#include "graph/shortest_paths.h"

namespace dm::graph {

/// Degree centrality: deg(v) / (n - 1); 0 for graphs with < 2 nodes.
std::vector<double> degree_centrality(const Adjacency& adj);

}  // namespace dm::graph
